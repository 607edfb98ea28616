"""The lambda_r probability metric and the rate bounds built on it.

    lambda_r(U, V) = sup_{t != 0} |f_U(t) - f_V(t)| / |t|^r,  r > 2

computed as a supremum over a log-spaced grid.  For CFs with matched
variance and r < 4 the ratio vanishes at both ends, so a grid sup is
faithful.  A supremum sitting on a grid boundary signals trouble: the
grid is extended downward (up to three decades, under the default
taylor-bound policy) or upward (one decade), and a ratio still growing
at the boundary after extension reports +inf.  Mismatched variances
with r = 3 are the canonical infinite case: the ratio behaves like
t^(2-r) near zero.

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
from dataclasses import dataclass, replace

import numpy as np

from .cf_core import GaussianCF, SymmetricCF, root_rescale, sum_rescale
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
_MAX_UP_EXTENSIONS = 1


@dataclass(frozen=True)
class LambdaConfig:
    """Grid and policy for evaluating lambda_r.

    small_t_policy "taylor-bound" verifies that the supremum does not
    sit at the small-t boundary, extending the grid downward if it
    does; "exclude" takes the grid supremum as is.
    """

    r: float
    t_min: float = 1e-3
    t_max: float = 50.0
    grid_size: int = 4096
    small_t_policy: str = "taylor-bound"

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r <= 2.0:
            raise ConfigError(f"r must exceed 2, got {self.r!r}")
        if not 0.0 < self.t_min < self.t_max:
            raise ConfigError("need 0 < t_min < t_max")
        if not math.isfinite(self.t_max):
            raise ConfigError("t_max must be finite")
        if int(self.grid_size) < 16:
            raise ConfigError("grid_size must be at least 16")
        if self.small_t_policy not in ("taylor-bound", "exclude"):
            raise ConfigError(f"unknown small_t_policy {self.small_t_policy!r}")


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
    # Equal exponents, -inf where both CFs underflow to 0, differ by 0.
    try:
        lu = cf_u.log_evaluate(ts)
        lv = cf_v.log_evaluate(ts)
    except PositivityError:
        return np.abs(cf_u.evaluate(ts) - cf_v.evaluate(ts)) / ts**r
    gap = np.subtract(lu, lv, out=np.zeros(ts.shape), where=lu != lv)
    diff = np.exp(np.maximum(lu, lv)) * -np.expm1(-np.abs(gap))
    return diff / ts**r


def lambda_r(cf_u: SymmetricCF, cf_v: SymmetricCF, config: LambdaConfig) -> float:
    """sup over the grid of |f_U - f_V| / |t|^r, possibly +inf.

    Both CFs are even, so the mirrored negative half of the grid repeats
    the same values and only the positive half is evaluated.
    """
    r = config.r
    per_decade = max(
        int(round(config.grid_size / math.log10(config.t_max / config.t_min))), 8
    )
    ts = np.geomspace(config.t_min, config.t_max, config.grid_size)
    vals = _ratio(cf_u, cf_v, ts, r)

    # growing toward large t: extend one decade, then call it divergent
    for _ in range(_MAX_UP_EXTENSIONS):
        if int(np.argmax(vals)) == vals.size - 1 and vals[-1] > vals[-2]:
            ext = np.geomspace(ts[-1], 10.0 * ts[-1], per_decade)[1:]
            ts = np.concatenate([ts, ext])
            vals = np.concatenate([vals, _ratio(cf_u, cf_v, ext, r)])
        else:
            break
    if int(np.argmax(vals)) == vals.size - 1 and vals[-1] > vals[-2]:
        return math.inf

    if config.small_t_policy == "taylor-bound":
        # supremum pinned at t_min means the grid missed the small-t
        # behaviour; push down a decade at a time
        for _ in range(_MAX_DOWN_EXTENSIONS):
            if int(np.argmax(vals)) == 0 and vals[0] > vals[1]:
                ext = np.geomspace(ts[0] / 10.0, ts[0], per_decade)[:-1]
                ts = np.concatenate([ext, ts])
                vals = np.concatenate([_ratio(cf_u, cf_v, ext, r), vals])
            else:
                break
        if int(np.argmax(vals)) == 0 and vals[0] > vals[1]:
            return math.inf

    return float(np.max(vals))


def _rate_bound(cf, m, r, config, backward: bool) -> tuple:
    """lambda_r of the m-th rescale of cf against m^(-+(r/2-1)) lambda_r(cf).

    Z is the gaussian with the (rescale-invariant) variance of cf
    (closed-form moments), and one grid serves both distances.  Forward
    reads the normalized m-fold sum against the upper bound
    m^-(r/2-1) lambda_r(cf, Z); backward reads the m-th root rescale
    against the lower bound m^(r/2-1) lambda_r(cf, Z), where an infinite
    left side always holds.  Returns (lhs, bound, holds, applicable);
    an infinite base distance makes the bound vacuous, which is flagged
    as not applicable rather than failed.
    """
    cfg = LambdaConfig(r=float(r)) if config is None else replace(config, r=float(r))
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
