"""The lambda_r probability metric and the rate bounds built on it.

    lambda_r(U, V) = sup_{t != 0} |f_U(t) - f_V(t)| / |t|^r,  r > 2

is ideal of order r, lambda_r(cU, cV) = c^r lambda_r(U, V), so it is read
in units of s, the larger length scale of the two laws: s^r times the
sup over one log-spaced grid of u of the ratio of the laws read at u / s,
taken at the vertex of the parabola through the grid maximum and its two
neighbours.  For CFs with matched variance and r < 4 the ratio vanishes
at both ends, so a grid sup is faithful.  A supremum sitting on a grid
boundary signals trouble: the grid is extended a decade at a time at
that end.  Upward this always ends, since |f_U - f_V| <= 2 bounds the
ratio by 2 / u^r; a ratio still growing at the bottom after three
decades downward reports +inf.  Mismatched variances with r = 3 are the
canonical infinite case: the ratio behaves like u^(2-r) near zero.

Two inequalities are checked at matched variance, with Z the gaussian
law with the variance s^2 of the input, and decided in units of s:

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

import numpy as np

from .cf_core import GaussianCF, SymmetricCF, root_rescale, scale_argument, sum_rescale
from .cf_core import _quote, _real, _scale_proxy, _spec_number, _spec_record
from .errors import ConfigError, InputError, MomentError, PositivityError

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

# exponents this close, relative to the smaller magnitude, are equal: each
# carries a few roundings, as StableCF(2, c) and its matched gaussian do
_TIE = 16.0 * np.finfo(float).eps

# the grid of u, shared read-only by every call; an extension decade
# holds its density, 872 points counting the end it extends
_GRID = np.geomspace(1e-3, 50.0, 4096)
_GRID.flags.writeable = False
_DECADE = 872


@dataclass(frozen=True)
class LambdaConfig:
    """Order r of lambda_r, stored as a float; a bool, a non-number, or a
    value that is not finite and above 2 raises ConfigError."""

    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", _spec_number("r", self.r))
        if not math.isfinite(self.r) or self.r <= 2.0:
            raise ConfigError(f"r must exceed 2, got {self.r!r}")


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
    # Equal exponents, -inf where both CFs underflow to 0, and exponents
    # within rounding of each other (_TIE) differ by 0, so a law equal to V
    # reads 0 in every unit; an exponent that overflows to -inf means f = 0.
    with np.errstate(over="ignore", divide="ignore"):
        try:
            lu = cf_u.log_evaluate(ts)
            lv = cf_v.log_evaluate(ts)
            top = np.maximum(lu, lv)
            gap = np.abs(np.subtract(lu, lv, out=np.zeros(ts.shape), where=lu != lv))
            gap[gap <= _TIE * -top] = 0.0
            diff = np.exp(top) * -np.expm1(-gap)
        except PositivityError:
            diff = np.abs(cf_u.evaluate(ts) - cf_v.evaluate(ts))
        # 0 where the CFs agree, whatever t^r is; a gap over a t^r that underflowed is inf
        return np.divide(diff, ts**r, out=np.zeros(ts.shape), where=diff != 0.0)


def _law(name: str, value) -> SymmetricCF:
    if not isinstance(value, SymmetricCF):
        raise InputError(f"{name} must be a SymmetricCF, got {_quote(value)}")
    return value


def _vertex(vals: np.ndarray, i: int) -> float:
    """vals[i] moved to the vertex of the parabola through it and its
    neighbours, evenly spaced in log t (an extension decade's spacing is
    the grid's within 0.05%); kept at an edge, on a non-finite value, or
    where the parabola does not open downward."""
    if not 0 < i < vals.size - 1:
        return float(vals[i])
    y0, y1, y2 = vals[i - 1:i + 2].tolist()
    curve = y0 - 2.0 * y1 + y2
    peak = y1 - (y2 - y0) * (y2 - y0) / (8.0 * curve) if curve < 0.0 else y1
    return peak if math.isfinite(peak) else y1


def _sup(cf_u: SymmetricCF, cf_v: SymmetricCF, s: float, r: float) -> float:
    """lambda_r in units of s: the sup of the ratio of the laws read at
    u / s, possibly +inf.  Both CFs are even, so only u > 0 is read."""
    cf_u, cf_v = scale_argument(cf_u, 1.0 / s), scale_argument(cf_v, 1.0 / s)
    ts = _GRID
    vals = _ratio(cf_u, cf_v, ts, r)

    # extend the end holding a still-growing supremum a decade at a
    # time; only the bottom end can diverge (see the module docstring)
    extended_down = 0
    while True:
        i = int(np.argmax(vals))
        if i == vals.size - 1 and vals[-1] > vals[-2]:
            ext = np.geomspace(ts[-1], 10.0 * ts[-1], _DECADE)[1:]
            ts = np.concatenate([ts, ext])
            vals = np.concatenate([vals, _ratio(cf_u, cf_v, ext, r)])
        elif i == 0 and vals[0] > vals[1]:
            if extended_down == _MAX_DOWN_EXTENSIONS:
                return math.inf
            extended_down += 1
            ext = np.geomspace(ts[0] / 10.0, ts[0], _DECADE)[:-1]
            ts = np.concatenate([ext, ts])
            vals = np.concatenate([_ratio(cf_u, cf_v, ext, r), vals])
        else:
            return _vertex(vals, i)


def _times_scale(value: float, s: float, r: float) -> float:
    """s^r times value, read in units of s: 0 and inf stay, and a product
    past the float range reads inf."""
    if value in (0.0, math.inf):
        return value
    try:
        return value * s ** (0.5 * r) * s ** (0.5 * r)
    except OverflowError:
        return math.inf


def lambda_r(cf_u: SymmetricCF, cf_v: SymmetricCF, config: LambdaConfig) -> float:
    """sup over t of |f_U - f_V| / |t|^r, possibly +inf, read in units of
    the laws' larger length scale: a law without one raises InputError,
    but for the point mass at 0."""
    r = _spec_record("config", config, LambdaConfig).r
    s = max(_scale_proxy(_law("cf_u", cf_u)), _scale_proxy(_law("cf_v", cf_v))) or 1.0
    return _times_scale(_sup(cf_u, cf_v, s, r), s, r)


def _variance(cf: SymmetricCF) -> float:
    """cf's variance; MomentError unless it is a finite float."""
    mu2 = _law("cf", cf).cumulants()[0]
    if not mu2 < math.inf:
        raise MomentError(f"variance {mu2!r} of this law is not representable")
    return mu2


def _rate_bound(cf, m, r, config, backward: bool) -> tuple:
    """lambda_r of the m-th rescale of cf against m^(-+(r/2-1)) lambda_r(cf).

    Z is the gaussian with the (rescale-invariant) variance s^2 of cf.
    Every distance is read in units of s (1 for the point mass at 0),
    where holds and applicable are decided; lhs and the bound are
    reported times s^r.  Forward reads the normalized m-fold sum against
    the upper bound m^-(r/2-1) lambda_r(cf, Z); backward reads the m-th
    root rescale against the lower bound m^(r/2-1) lambda_r(cf, Z), where
    an infinite left side always holds.  Returns (lhs, bound, holds,
    applicable); an infinite base distance makes the bound vacuous,
    which is flagged as not applicable rather than failed.  A config
    whose r differs from r raises ConfigError.
    """
    r = _real("r", r)
    cfg = LambdaConfig(r=r) if config is None else _spec_record("config", config, LambdaConfig)
    if cfg.r != r:
        raise ConfigError(f"config.r = {cfg.r:g} differs from r = {r:g}")
    mu2 = _variance(cf)
    s, z = math.sqrt(mu2) or 1.0, GaussianCF(mu2)
    lam_base = _sup(cf, z, s, r)
    exponent = r / 2.0 - 1.0
    if backward:
        lhs = _sup(root_rescale(cf, m), z, s, r)
        bound = _times_scale(lam_base, float(m), exponent)
        holds = math.isinf(lhs) or lhs >= bound * (1.0 - _SLACK)
    else:
        lhs = _sup(sum_rescale(cf, m), z, s, r)
        bound = float(m) ** -exponent * lam_base
        holds = lhs <= bound * (1.0 + _SLACK)
    return _times_scale(lhs, s, r), _times_scale(bound, s, r), holds, math.isfinite(lam_base)


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
