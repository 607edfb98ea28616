"""Detection of a gaussian component in a symmetric ID law.

For an infinitely divisible CF, -log f(t) = a t^2 + o(t^2) as t grows,
where exp(-a t^2) is the pointwise limit of the m-th root rescales.
The coefficient a is therefore read off at large t:

    a_hat = -log f(t) / t^2   at the largest point of a schedule,

with the gap to the second largest point serving as the error bound.
A gaussian component is declared present only when a_hat clears the
tolerance by more than that bound, so noisy or borderline estimates
answer "no".  An exponent that vanishes too slowly still can clear it:
a symmetric stable law has a_hat = c^alpha t^(alpha - 2), which the
default schedule reads as a component for alpha above about 1.41 at
c = 1.  The estimator itself lives in cf_core's ladder core, shared
with the drift estimator of laplace_core.

Moments come in two flavours: exact cumulant algebra per family
(closed-form) and fourth-order central differences of the CF at zero
(finite-difference).  The kurtosis check verifies the linear growth of
excess kurtosis under root rescaling, kappa(m) = m * kappa(1), which is
the moment-level signature of the rescaling ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf_core import (
    _DEFAULT_SCHEDULE,
    _DEFAULT_TOL,
    SymmetricCF,
    _clears,
    _ladder_estimate,
    _limit_sup,
    _reals,
    limit_gaussian,
    root_rescale,
)
from .errors import InputError, MomentError

__all__ = [
    "DEFAULT_T_SCHEDULE",
    "DEFAULT_DETECTION_TOL",
    "GaussianEstimate",
    "GaussianDecision",
    "MomentSet",
    "KurtosisScaling",
    "estimate_gaussian_coefficient",
    "has_gaussian_component",
    "limit_deviation",
    "moments",
    "kurtosis_scaling_check",
    "remainder_profile",
]

# shared with laplace_core as DEFAULT_S_SCHEDULE and DEFAULT_SUPPORT_TOL
DEFAULT_T_SCHEDULE = _DEFAULT_SCHEDULE
DEFAULT_DETECTION_TOL = _DEFAULT_TOL


@dataclass(frozen=True)
class GaussianEstimate:
    """Estimated gaussian coefficient with its schedule diagnostics."""

    a_hat: float
    error_bound: float
    t_used: float
    schedule: tuple
    values: tuple

    @property
    def component_variance(self) -> float:
        """Twice the coefficient: the variance of the gaussian factor exp(-a t^2)."""
        return 2.0 * self.a_hat

    @property
    def monotone_decreasing(self) -> bool:
        """Whether -log f(t)/t^2 decreased along the whole schedule."""
        return all(b <= a for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True)
class GaussianDecision:
    has_component: bool
    estimate: GaussianEstimate


@dataclass(frozen=True)
class MomentSet:
    mu2: float
    mu4: float
    kappa: float
    method: str


@dataclass(frozen=True)
class KurtosisScaling:
    m: int
    kappa_1: float
    kappa_m: float
    expected: float
    relative_error: float
    method: str
    base_moments: MomentSet
    rescaled_moments: MomentSet


def estimate_gaussian_coefficient(
    cf: SymmetricCF, t_schedule=DEFAULT_T_SCHEDULE
) -> GaussianEstimate:
    """Estimate a from -log f(t) / t^2 along an increasing schedule.

    The estimate is the value at the largest schedule point; the error
    bound is the absolute gap to the second largest.  The CF must stay
    strictly positive along the schedule (always true away from the
    empirical kind).
    """
    return GaussianEstimate(*_ladder_estimate(cf, t_schedule, "t_schedule"))


def has_gaussian_component(
    cf: SymmetricCF,
    tol: float = DEFAULT_DETECTION_TOL,
    t_schedule=DEFAULT_T_SCHEDULE,
) -> GaussianDecision:
    """Decide whether the estimated coefficient clears tol.

    Answers yes only when a_hat > tol + error_bound; anything within
    the uncertainty band is reported as "no component detected".
    """
    est = estimate_gaussian_coefficient(cf, t_schedule)
    return GaussianDecision(has_component=_clears(est.a_hat, est.error_bound, tol), estimate=est)


def limit_deviation(
    cf: SymmetricCF,
    m: int,
    T: float,
    grid_size: int = 2048,
    a: float | None = None,
    tol: float = DEFAULT_DETECTION_TOL,
    t_schedule=DEFAULT_T_SCHEDULE,
) -> float:
    """sup over |t| <= T of |root_rescale(cf, m)(t) - exp(-a t^2)|.

    When a is not supplied it is estimated from the schedule, and the
    detection rule is applied first: if no gaussian component clears the
    tolerance the limit is the constant 1 (a = 0), matching the
    degenerate branch of the limit theorem.  Both sides are even, so
    the grid covers 0 < t <= T only.
    """
    if a is None:
        decision = has_gaussian_component(cf, tol, t_schedule)
        a = decision.estimate.a_hat if decision.has_component else 0.0
    return _limit_sup(root_rescale(cf, m), limit_gaussian(a), "T", T, grid_size)


def _fd_moments(cf: SymmetricCF, stretch: float = 1.0) -> tuple[float, float]:
    """Fourth-order central differences of the CF at zero.

    Step size h = stretch * 1e-2 / sqrt(mu2_rough), where mu2_rough
    comes from a coarse second difference at the first h0 in 0.1, 0.01,
    ... with f(h0) >= 1/2, or, for a law so narrow that f(0.1) rounds to 1, at
    the first h0 in 1, 10, ... with f(h0) < 1; this balances truncation
    against cancellation for CFs whose curvature at zero is about mu2.
    The step follows the law's scale without a floor, so the relative
    error is the same at every variance; a law so wide or so narrow that
    h^4 leaves the normal float range raises MomentError.  A law with
    f = 1 wherever h0^2 is finite is the point mass at 0 to float
    precision, and every difference of it reads 0.
    """
    if not cf.has_finite_fourth_moment():
        raise MomentError("finite-difference moments need a finite fourth moment")

    h0, f0 = 0.1, float(cf.evaluate(0.1))
    if f0 == 1.0:
        while f0 == 1.0 and math.isfinite(100.0 * h0 * h0):
            h0 *= 10.0
            f0 = float(cf.evaluate(h0))
        if f0 == 1.0:
            # the point mass: -d2 and d4 at any step whose stencil reads f = 1
            return -0.0, 0.0
    else:
        while f0 < 0.5:
            h0 /= 10.0
            f0 = float(cf.evaluate(h0))
    # h0^2 = 0 only for a law far wider than any float variance
    mu2_rough = 2.0 * (1.0 - f0) / (h0 * h0) if h0 * h0 > 0.0 else math.inf
    h = stretch * 1e-2 / math.sqrt(mu2_rough)
    try:
        h4 = h**4
    except OverflowError:
        h4 = math.inf
    if not np.finfo(float).tiny <= h4 < math.inf:
        mu2 = -2.0 * float(cf.log_evaluate(h0)) / (h0 * h0) if h0 * h0 > 0.0 else math.inf
        raise MomentError(f"finite-difference step {h:.3g} is too {'small' if h < 1.0 else 'large'}"
                          f" for a law of variance about {mu2:.3g}")

    f1, f2, f3 = (float(cf.evaluate(k * h)) for k in (1.0, 2.0, 3.0))
    # even function: stencils fold the negative side onto the positive one
    d2 = (-30.0 + 32.0 * f1 - 2.0 * f2) / (12.0 * h * h)
    d4 = (56.0 - 78.0 * f1 + 24.0 * f2 - 2.0 * f3) / (6.0 * h4)
    return -d2, d4


def moments(cf: SymmetricCF, method: str = "closed-form") -> MomentSet:
    """Second and fourth moments plus excess kurtosis.

    method "closed-form" uses exact per-family cumulants; method
    "finite-difference" differentiates the CF numerically.  Both raise
    MomentError for heavy-tailed laws (stable with alpha < 2).
    """
    if method == "closed-form":
        mu2, k4 = cf.cumulants()
        mu4 = k4 + 3.0 * mu2 * mu2
    elif method == "finite-difference":
        mu2, mu4 = _fd_moments(cf)
        k4 = mu4 - 3.0 * mu2 * mu2
    else:
        raise InputError(f"unknown moments method {method!r}")
    return MomentSet(mu2=float(mu2), mu4=float(mu4), kappa=_excess_kurtosis(mu2, mu4, k4),
                     method=method)


def _excess_kurtosis(mu2: float, mu4: float, k4: float) -> float:
    if mu2 > 0.0 and not np.finfo(float).tiny <= mu2 * mu2 < math.inf:
        # 3 mu2^2 in mu4 leaves the normal range with mu2^2: use the cumulant
        kappa = k4 / mu2 / mu2
    else:
        kappa = mu4 / (mu2 * mu2) - 3.0 if mu2 > 0.0 else 0.0
    if not math.isfinite(kappa):
        raise MomentError(f"excess kurtosis of a law with variance {mu2!r} is not representable")
    return float(kappa)


# A finite-difference kurtosis at least this far from zero is not stencil
# noise: at step h a gaussian reads about -1e-8 to -6e-8, and the steps h
# and 2h differ by at most 1e-5 on the laws the tests and benchmark read.
_FD_NOISE_CEILING = 1e-3


def _zero_kurtosis_gap(cf: SymmetricCF, m: int, base: MomentSet) -> float:
    """The |m kappa_1| below which the kurtosis check compares absolutely.

    1e-9 for closed forms.  A finite-difference kappa_1 near zero may be
    stencil noise: it counts as zero unless a second stencil, at twice
    the step, agrees with it to a tenth of its size.
    """
    if base.method != "finite-difference" or abs(base.kappa) >= _FD_NOISE_CEILING:
        return 1e-9
    try:
        mu2, mu4 = _fd_moments(cf, 2.0)
        coarse = _excess_kurtosis(mu2, mu4, mu4 - 3.0 * mu2 * mu2)
    except MomentError:
        # the step 2h leaves the float range: keep the closed-form floor
        return 1e-9
    return max(10.0 * m * abs(base.kappa - coarse), 1e-9)


def kurtosis_scaling_check(
    cf: SymmetricCF, m: int, method: str = "closed-form"
) -> KurtosisScaling:
    """Verify kappa(m) = m * kappa(1) under root rescaling.

    Reports the relative error against the expected linear growth; when
    the expected kurtosis is zero within the error of the moments
    (gaussian input) the comparison falls back to the absolute gap.
    That error is 1e-9 for closed forms; for finite differences it is
    read from a second stencil at twice the step, taken only when the
    base kurtosis is below 1e-3.  The moment sets of the law and of its
    rescale come along.
    """
    base = moments(cf, method)
    rescaled = moments(root_rescale(cf, m), method)
    expected = m * base.kappa
    gap = abs(rescaled.kappa - expected)
    if abs(expected) < _zero_kurtosis_gap(cf, m, base):
        rel = gap
    else:
        rel = gap / abs(expected)
    return KurtosisScaling(
        m=int(m),
        kappa_1=base.kappa,
        kappa_m=rescaled.kappa,
        expected=expected,
        relative_error=float(rel),
        method=base.method,
        base_moments=base,
        rescaled_moments=rescaled,
    )


def remainder_profile(cf: SymmetricCF, a_hat: float, t_grid) -> list[tuple[float, float]]:
    """r(t) = (-log f(t) - a_hat t^2) / t^2, tabulated on a grid.

    The profile shows what is left of the exponent after the gaussian
    part is removed; for infinitely divisible laws it decays to zero.
    """
    grid = _reals("t_grid", t_grid)
    if grid.size == 0:
        raise InputError("t_grid is empty")
    with np.errstate(over="ignore"):
        sq = grid * grid
    if not np.all(np.isfinite(sq)) or np.any(sq == 0.0):
        raise InputError("t_grid must be finite and nonzero, with t^2 finite and nonzero")
    a = float(a_hat)
    if not math.isfinite(a):
        raise InputError(f"a_hat must be finite, got {a_hat!r}")
    logs = cf.log_evaluate(grid)
    r = (-logs - a * grid * grid) / sq
    return [(float(t), float(v)) for t, v in zip(grid, r)]
