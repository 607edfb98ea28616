"""Laplace transforms of positive infinitely divisible laws.

Transforms here are completely monotone with L(0+) = 1, written through
their exponent log L(s).  The rescaling ladder mirrors the symmetric
case without the square roots:

    root_rescale_L(L, m)(s) = L(m s)^(1/m)

converges pointwise to exp(-sigma s), where sigma >= 0 is the drift
(the linear part of the exponent at large s).  The law has support
reaching down to zero exactly when sigma = 0, so drift estimation
answers the support question:

    sigma_hat = -log L(s) / s   at the largest point of a schedule,

with the gap to the previous point as the error bound, and support is
declared to touch zero when sigma_hat <= tol + error_bound.

The canonical exponent is

    log L(s) = -sigma s - int (1 - e^(-a s)) / (1 - e^(-a)) dmu(a)

with mu a finite measure on (0, inf) held as a DiscretizedMeasure.

The ladder itself (validators, rescaled and product exponents, the
schedule estimator, the decision rule and the limit-deviation sup) is
the power-1 reading of the core in cf_core, shared with the symmetric
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf_core import (
    _DEFAULT_SCHEDULE,
    _DEFAULT_TOL,
    _check_index,
    _check_measure,
    _check_nonneg_param,
    _check_positive_param,
    _clears,
    _ladder_estimate,
    _limit_sup,
    _measure_fields,
    _param,
    _Product,
    _rescale,
    _RootRescaled,
    _Transform,
)
from .errors import InputError
from .measures import DiscretizedMeasure, _SeriesKernel

__all__ = [
    "LaplaceTransform",
    "GammaSubordinator",
    "PoissonSubordinator",
    "StableSubordinator",
    "DriftTransform",
    "CanonicalLaplace",
    "ProductLaplace",
    "RootRescaledLaplace",
    "DriftEstimate",
    "SupportDecision",
    "root_rescale_L",
    "convolve_L",
    "estimate_drift",
    "support_touches_zero",
    "limit_deviation_L",
    "DEFAULT_S_SCHEDULE",
    "DEFAULT_SUPPORT_TOL",
]

# the symmetric side's defaults (analysis.DEFAULT_T_SCHEDULE and
# DEFAULT_DETECTION_TOL) under their Laplace names
DEFAULT_S_SCHEDULE = _DEFAULT_SCHEDULE
DEFAULT_SUPPORT_TOL = _DEFAULT_TOL
DEFAULT_S_GRID_SIZE = 1024


class LaplaceTransform(_Transform):
    """Base class; kinds implement _log_values on positive float arrays."""

    _power = 1

    @staticmethod
    def _check_domain(s):
        if not np.isfinite(s).all():
            raise InputError("s must be finite")
        if (s <= 0.0).any():
            raise InputError("s must be strictly positive")


@dataclass(frozen=True)
class GammaSubordinator(LaplaceTransform):
    """L(s) = (1 + s)^(-shape), the gamma subordinator marginal."""

    _kind = "gammasub"

    shape: float = _param(_check_positive_param)

    def _log_values(self, s):
        return -self.shape * np.log1p(s)


@dataclass(frozen=True)
class PoissonSubordinator(LaplaceTransform):
    """L(s) = exp(rate * (e^(-s) - 1)), the Poisson law on the integers."""

    _kind = "poissonsub"

    rate: float = _param(_check_positive_param)

    def _log_values(self, s):
        return self.rate * np.expm1(-s)


@dataclass(frozen=True)
class StableSubordinator(LaplaceTransform):
    """L(s) = exp(-(scale * s)^alpha) with 0 < alpha < 1."""

    _kind = "stablesub"

    alpha: float = _param(_check_index(1.0, closed=False))
    scale: float = _param(_check_positive_param)

    def _log_values(self, s):
        return -((self.scale * s) ** self.alpha)


@dataclass(frozen=True)
class DriftTransform(LaplaceTransform):
    """L(s) = exp(-sigma s): the law degenerate at sigma >= 0."""

    _kind = "drift"

    sigma: float = _param(_check_nonneg_param)

    def _log_values(self, s):
        return -self.sigma * s


def _jump_factor(a):
    # 1 / expm1(-a) times min(a, 1), which tends to -1 as a -> 0
    return np.minimum(a, 1.0) / np.expm1(-a)


# expm1(v) at v = -a s, times 1 / expm1(-a).  Its series sum_k v^k / k!
# stops at k = 19; the first term left out is below 1e-18 of |expm1(v)|
# at |v| <= 1.
_JUMP_KERNEL = _SeriesKernel(
    -1.0, (np.expm1,), _jump_factor, 1,
    tuple(1.0 / math.factorial(k) for k in range(1, 20)),
)


@dataclass(frozen=True)
class CanonicalLaplace(LaplaceTransform):
    """Exponent -sigma s - int (1 - e^(-a s)) / (1 - e^(-a)) dmu(a)."""

    sigma: float = _param(_check_nonneg_param)
    measure: DiscretizedMeasure = _param(_check_measure)

    def _log_values(self, s):
        jump_part = self.measure.integrate_outer(_JUMP_KERNEL, s)
        return -self.sigma * s - jump_part

    def describe(self):
        return {"kind": "canonical", "sigma": self.sigma, **_measure_fields(self.measure)}


@dataclass(frozen=True)
class ProductLaplace(_Product, LaplaceTransform):
    """Pointwise product: the transform of the independent sum."""

    _family = LaplaceTransform


@dataclass(frozen=True)
class RootRescaledLaplace(_RootRescaled, LaplaceTransform):
    """L_m(s) = L(m s)^(1/m); drift is invariant under this map."""


def root_rescale_L(lt: LaplaceTransform, m) -> LaplaceTransform:
    """L(m s)^(1/m).  Pure drifts are fixed points; nested rescales collapse."""
    return _rescale(lt, m, DriftTransform, RootRescaledLaplace)


def convolve_L(*lts: LaplaceTransform) -> LaplaceTransform:
    """Transform of the sum of independent positive variables."""
    if len(lts) == 1 and isinstance(lts[0], LaplaceTransform):
        return lts[0]
    return ProductLaplace(tuple(lts))


@dataclass(frozen=True)
class DriftEstimate:
    sigma_hat: float
    error_bound: float
    s_used: float
    schedule: tuple
    values: tuple


@dataclass(frozen=True)
class SupportDecision:
    touches_zero: bool
    sigma_hat: float
    estimate: DriftEstimate


def estimate_drift(lt: LaplaceTransform, s_schedule=DEFAULT_S_SCHEDULE) -> DriftEstimate:
    """sigma_hat = -log L(s) / s at the largest schedule point.

    The error bound is the gap to the second largest point, the same
    estimator as the gaussian coefficient on the symmetric side.
    """
    return DriftEstimate(*_ladder_estimate(lt, s_schedule, "s_schedule"))


def support_touches_zero(
    lt: LaplaceTransform,
    tol: float = DEFAULT_SUPPORT_TOL,
    s_schedule=DEFAULT_S_SCHEDULE,
) -> SupportDecision:
    """Decide whether the law puts mass arbitrarily close to zero.

    That holds exactly when the drift vanishes; the decision is yes
    unless sigma_hat > tol + error_bound, so uncertain estimates err on
    the side of "touches zero".
    """
    est = estimate_drift(lt, s_schedule)
    return SupportDecision(
        touches_zero=not _clears(est.sigma_hat, est.error_bound, tol),
        sigma_hat=est.sigma_hat,
        estimate=est,
    )


def limit_deviation_L(
    lt: LaplaceTransform,
    m: int,
    S: float,
    grid_size: int = DEFAULT_S_GRID_SIZE,
    sigma: float | None = None,
    tol: float = DEFAULT_SUPPORT_TOL,
    s_schedule=DEFAULT_S_SCHEDULE,
) -> float:
    """sup over s in (0, S] of |root_rescale_L(lt, m)(s) - exp(-sigma s)|.

    With sigma unspecified it is estimated from the schedule, the
    support rule applied first: a law whose support touches zero has
    the constant-one limit (sigma = 0).  Callers who know the drift
    exactly pass it to compare against the true limit.
    """
    if sigma is None:
        decision = support_touches_zero(lt, tol, s_schedule)
        sigma = 0.0 if decision.touches_zero else decision.sigma_hat
    return _limit_sup(root_rescale_L(lt, m), DriftTransform(sigma), "S", S, grid_size)
