"""The lambda_r probability metric and the rate bounds built on it.

    lambda_r(U, V) = sup_{t != 0} |f_U(t) - f_V(t)| / |t|^r,  r > 2

computed as a supremum over a log-spaced grid.  For CFs with matched
variance and r < 4 the ratio vanishes at both ends, so a grid sup is
faithful.  A supremum sitting on a grid boundary signals trouble: the
grid is extended a decade at a time at that end.  Upward this always
ends, since |f_U - f_V| <= 2 bounds the ratio by 2 / t^r; a ratio still
growing at t_min after three decades downward reports +inf.  Mismatched
variances with r = 3 are the canonical infinite case: the ratio behaves
like t^(2-r) near zero.

Two inequalities are checked at matched variance, with Z the gaussian
law with the variance of the input:

  forward:   lambda_r(S_m, Z) <= m^-(r/2-1) lambda_r(X, Z)
             for S_m the normalized m-fold sum of X, and
  backward:  lambda_r(X_m, Z) >= m^(r/2-1) lambda_r(X, Z)
             for X_m the m-th root rescale of X.

The forward bound is the classical CLT convergence rate; the backward
bound is its mirror image and quantifies how root rescaling moves a law
away from the gaussian unless it already is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cf_core import GaussianCF, SymmetricCF, root_rescale, sum_rescale
from .cf_core import _real, _spec_integer, _spec_number, _spec_record
from .analysis import moments
from .errors import ConfigError, PositivityError

__all__ = [
    "LambdaConfig",
    "BoundCheck",
    "BackwardBound",
    "lambda_r",
    "clt_bound_check",
    "backward_bound",
]

# relative slack on both rate inequalities, for rounding in lambda_r
_SLACK = 1e-9

_MAX_DOWN_EXTENSIONS = 3


@dataclass(frozen=True)
class LambdaConfig:
    """Order r and the log-spaced grid on which lambda_r is evaluated.

    r, t_min and t_max are stored as floats and grid_size as an int; a
    bool, a non-number, or a non-finite or non-integral value raises
    ConfigError.  The grid is a starting point: lambda_r extends it
    where the supremum sits on either end.
    """

    r: float
    t_min: float = 1e-3
    t_max: float = 50.0
    grid_size: int = 4096

    def __post_init__(self):
        for name in ("r", "t_min", "t_max"):
            object.__setattr__(self, name, _spec_number(name, getattr(self, name)))
        object.__setattr__(self, "grid_size", _spec_integer("grid_size", self.grid_size))
        if not math.isfinite(self.r) or self.r <= 2.0:
            raise ConfigError(f"r must exceed 2, got {self.r!r}")
        if not 0.0 < self.t_min < self.t_max < math.inf:
            raise ConfigError("need 0 < t_min < t_max, with t_max finite")
        if self.grid_size < 16:
            raise ConfigError("grid_size must be at least 16")


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of the forward rate check lhs <= rhs * (1 + 1e-9)."""

    lhs: float
    rhs: float
    holds: bool
    m: int
    r: float
    applicable: bool = True


@dataclass(frozen=True)
class BackwardBound:
    """Outcome of the divergence check lhs >= lower * (1 - 1e-9)."""

    lhs: float
    lower: float
    holds: bool
    m: int
    r: float
    applicable: bool = True


def _ratio(cf_u: SymmetricCF, cf_v: SymmetricCF, ts: np.ndarray, r: float) -> np.ndarray:
    # |e^a - e^b| = e^max(a,b) * (1 - e^-|a-b|): the log-space form keeps
    # tiny differences between near-one CFs from drowning in cancellation
    # noise, which matters when the grid extends to very small t.  CFs
    # without a log (empirical ones can cross zero) subtract directly.
    # Equal exponents, -inf where both CFs underflow to 0, differ by 0; an
    # exponent that overflows to -inf means f = 0 there.
    with np.errstate(over="ignore", divide="ignore"):
        try:
            lu = cf_u.log_evaluate(ts)
            lv = cf_v.log_evaluate(ts)
            gap = np.subtract(lu, lv, out=np.zeros(ts.shape), where=lu != lv)
            diff = np.exp(np.maximum(lu, lv)) * -np.expm1(-np.abs(gap))
        except PositivityError:
            diff = np.abs(cf_u.evaluate(ts) - cf_v.evaluate(ts))
        # 0 where the CFs agree, whatever t^r is; a gap over a t^r that underflowed is inf
        return np.divide(diff, ts**r, out=np.zeros(ts.shape), where=diff != 0.0)


@lru_cache(maxsize=8)
def _start_grid(t_min: float, t_max: float, grid_size: int) -> np.ndarray:
    """lambda_r's starting grid, read-only and kept per span and size;
    an extension builds new arrays and leaves it as it is."""
    ts = np.geomspace(t_min, t_max, grid_size)
    ts.flags.writeable = False
    return ts


def lambda_r(cf_u: SymmetricCF, cf_v: SymmetricCF, config: LambdaConfig) -> float:
    """sup over the grid of |f_U - f_V| / |t|^r, possibly +inf.

    Both CFs are even, so the mirrored negative half of the grid repeats
    the same values and only the positive half is evaluated.
    """
    r = _spec_record("config", config, LambdaConfig).r
    # an extension decade holds the starting grid's density, capped at
    # grid_size points so that a short starting span stays cheap
    per_decade = min(
        max(int(round(config.grid_size / math.log10(config.t_max / config.t_min))), 8),
        config.grid_size,
    )
    ts = _start_grid(config.t_min, config.t_max, config.grid_size)
    vals = _ratio(cf_u, cf_v, ts, r)

    # extend the end holding a still-growing supremum a decade at a
    # time; only the bottom end can diverge (see the module docstring)
    extended_down = 0
    while True:
        i = int(np.argmax(vals))
        if i == vals.size - 1 and vals[-1] > vals[-2]:
            ext = np.geomspace(ts[-1], 10.0 * ts[-1], per_decade)[1:]
            ts = np.concatenate([ts, ext])
            vals = np.concatenate([vals, _ratio(cf_u, cf_v, ext, r)])
        elif i == 0 and vals[0] > vals[1]:
            if extended_down == _MAX_DOWN_EXTENSIONS:
                return math.inf
            extended_down += 1
            ext = np.geomspace(ts[0] / 10.0, ts[0], per_decade)[:-1]
            ts = np.concatenate([ext, ts])
            vals = np.concatenate([_ratio(cf_u, cf_v, ext, r), vals])
        else:
            return float(vals[i])


def _rate_bound(cf, m, r, config, backward: bool) -> tuple:
    """lambda_r of the m-th rescale of cf against m^(-+(r/2-1)) lambda_r(cf).

    Z is the gaussian with the (rescale-invariant) variance of cf
    (closed-form moments), and one grid serves both distances.  Forward
    reads the normalized m-fold sum against the upper bound
    m^-(r/2-1) lambda_r(cf, Z); backward reads the m-th root rescale
    against the lower bound m^(r/2-1) lambda_r(cf, Z), where an infinite
    left side always holds.  Returns (lhs, bound, holds, applicable);
    an infinite base distance makes the bound vacuous, which is flagged
    as not applicable rather than failed.  A config whose r differs from
    r raises ConfigError.
    """
    r = _real("r", r)
    cfg = LambdaConfig(r=r) if config is None else _spec_record("config", config, LambdaConfig)
    if cfg.r != r:
        raise ConfigError(f"config.r = {cfg.r:g} differs from r = {r:g}")
    z = GaussianCF(moments(cf).mu2)
    lam_base = lambda_r(cf, z, cfg)
    exponent = r / 2.0 - 1.0
    if backward:
        lhs = lambda_r(root_rescale(cf, m), z, cfg)
        bound = float(m) ** exponent * lam_base
        holds = math.isinf(lhs) or lhs >= bound * (1.0 - _SLACK)
    else:
        lhs = lambda_r(sum_rescale(cf, m), z, cfg)
        bound = float(m) ** -exponent * lam_base
        holds = lhs <= bound * (1.0 + _SLACK)
    return lhs, bound, bool(holds), bool(math.isfinite(lam_base))


def clt_bound_check(
    cf_xi: SymmetricCF, m: int, r: float, config: LambdaConfig | None = None
) -> BoundCheck:
    """Check lambda_r(S_m, Z) <= m^-(r/2-1) lambda_r(xi, Z).

    Z is the gaussian law with the variance of cf_xi; see _rate_bound.
    """
    lhs, rhs, holds, applicable = _rate_bound(cf_xi, m, r, config, backward=False)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=holds, m=int(m), r=float(r), applicable=applicable)


def backward_bound(
    cf_root: SymmetricCF, m: int, r: float, config: LambdaConfig | None = None
) -> BackwardBound:
    """Check lambda_r(X_m, Z) >= m^(r/2-1) lambda_r(X_1, Z).

    X_m is the m-th root rescale of cf_root: numerically the forward
    check read in the opposite direction; see _rate_bound.
    """
    lhs, lower, holds, applicable = _rate_bound(cf_root, m, r, config, backward=True)
    return BackwardBound(
        lhs=lhs, lower=lower, holds=holds, m=int(m), r=float(r), applicable=applicable
    )
