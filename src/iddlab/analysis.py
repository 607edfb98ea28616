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


def _fd_moments(cf: SymmetricCF) -> tuple[float, float]:
    """Fourth-order central differences of the CF at zero.

    Step size h = max(1e-2 / sqrt(mu2_rough), 1e-4), where mu2_rough
    comes from a coarse second difference; this balances truncation
    against cancellation for CFs whose curvature at zero is about mu2.
    """
    if not cf.has_finite_fourth_moment():
        raise MomentError("finite-difference moments need a finite fourth moment")

    h0 = 0.1
    while float(cf.evaluate(h0)) < 0.5 and h0 > 1e-8:
        h0 /= 10.0
    mu2_rough = max(2.0 * (1.0 - float(cf.evaluate(h0))) / (h0 * h0), 1e-16)
    h = max(1e-2 / math.sqrt(mu2_rough), 1e-4)

    f1, f2, f3 = (float(cf.evaluate(k * h)) for k in (1.0, 2.0, 3.0))
    # even function: stencils fold the negative side onto the positive one
    d2 = (-30.0 + 32.0 * f1 - 2.0 * f2) / (12.0 * h * h)
    d4 = (56.0 - 78.0 * f1 + 24.0 * f2 - 2.0 * f3) / (6.0 * h**4)
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
    if mu2 > 0.0 and not np.finfo(float).tiny <= mu2 * mu2 < math.inf:
        # 3 mu2^2 in mu4 leaves the normal range with mu2^2: use the cumulant
        kappa = k4 / mu2 / mu2
    else:
        kappa = mu4 / (mu2 * mu2) - 3.0 if mu2 > 0.0 else 0.0
    if not math.isfinite(kappa):
        raise MomentError(f"excess kurtosis of a law with variance {mu2!r} is not representable")
    return MomentSet(mu2=float(mu2), mu4=float(mu4), kappa=float(kappa), method=method)


def kurtosis_scaling_check(
    cf: SymmetricCF, m: int, method: str = "closed-form"
) -> KurtosisScaling:
    """Verify kappa(m) = m * kappa(1) under root rescaling.

    Reports the relative error against the expected linear growth; when
    the base kurtosis vanishes (gaussian input) the comparison falls
    back to the absolute gap, which must stay below 1e-9 to count as
    exact.  The moment sets of the law and of its rescale come along.
    """
    base = moments(cf, method)
    rescaled = moments(root_rescale(cf, m), method)
    expected = m * base.kappa
    gap = abs(rescaled.kappa - expected)
    if abs(expected) < 1e-9:
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
    grid = np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise InputError("t_grid is empty")
    if not np.all(np.isfinite(grid)) or np.any(grid == 0.0):
        raise InputError("t_grid must be finite and nonzero")
    logs = cf.log_evaluate(grid)
    r = (-logs - float(a_hat) * grid * grid) / (grid * grid)
    return [(float(t), float(v)) for t, v in zip(grid, r)]
