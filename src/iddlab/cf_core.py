"""Symmetric characteristic functions and their rescaling transforms.

Characteristic functions (CFs) here are real and even: f(0) = 1 and
f(-t) = f(t).  Closed-form families, canonical exponents and lazy
transform wrappers all expose two entry points:

  evaluate(t)      the CF value, scalar in, scalar out (arrays pass
                   through elementwise)
  log_evaluate(t)  log f(t), computed directly from the exponent for
                   every kind except empirical CFs

The log path matters: detection routines probe t up to 1e4, where f
itself underflows to zero long before the exponent loses precision.
Empirical CFs have no exponent, can touch zero or go negative, and
raise PositivityError from the log path at the offending t.

The two transforms of interest are

  root_rescale(f, m)(t) = f(sqrt(m) t)^(1/m)
  sum_rescale(f, m)(t)  = f(t / sqrt(m))^m

which are mutual inverses.  sum_rescale(f, m) is the CF of the
normalized m-fold sum S_m = (X_1 + ... + X_m) / sqrt(m); for infinitely
divisible laws root_rescale walks the same ladder in the opposite
direction and converges pointwise to a gaussian factor exp(-a t^2) as
m grows.  Both wrappers are lazy and preserve the exponent algebra
exactly; gaussian CFs, the fixed points of both maps, are returned
unchanged.

All objects are immutable after construction and safe to share between
threads.  The exponent-ladder core at the top of this module is shared
with laplace_core, which reads Laplace transforms the same way.

A kind declares each parameter once, as a dataclass field carrying its
check:

  scale: float = _param(_check_positive_param)

A check is a function check(name, value) that raises InputError naming
the parameter, or returns the value normalized (a float for reals, an
int for orders).  _Transform.__post_init__ runs the checks in field
order, and the closed-form families describe themselves as their
class-level _kind plus their fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .errors import ConfigError, InputError, MomentError, PositivityError
from .measures import DiscretizedMeasure

__all__ = [
    "SymmetricCF",
    "GaussianCF",
    "StableCF",
    "SymmetrizedGammaCF",
    "CompoundPoissonCF",
    "CanonicalCF",
    "EmpiricalCF",
    "ProductCF",
    "RootRescaledCF",
    "SumRescaledCF",
    "ScaledCF",
    "root_rescale",
    "sum_rescale",
    "limit_gaussian",
    "convolve",
    "from_samples",
    "scale_argument",
    "compound_poisson_canonical",
]


# ---------------------------------------------------------------------------
# the exponent ladder shared with laplace_core
#
# A symmetric CF (power p = 2, argument t) and a Laplace transform of a
# positive law (p = 1, argument s) are read the same way: through the
# exponent log phi(x), along the root-rescale ladder
# phi(m^(1/p) x)^(1/m), whose limit exp(-c x^p) carries the coefficient
# c = lim -log phi(x) / x^p.  The validators, the rescaled and product
# exponents, the schedule estimator, the decision rule and the
# limit-deviation sup below serve both families; analysis and
# laplace_core wrap them in their public entry points.

# default schedule and tolerance of both the gaussian-component and the
# drift estimator
_DEFAULT_SCHEDULE = (10.0, 31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0)
_DEFAULT_TOL = 1e-4


def _check_positive_param(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InputError(f"{name} must be finite and strictly positive, got {value!r}")
    return value


def _check_nonneg_param(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise InputError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _check_m(name: str, value) -> int:
    """value as an int: a number, not a bool, that is integral, at least 1
    and within float range; anything else raises InputError."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value) and int(value) == value >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _spec_number(name: str, value) -> float:
    """value as a float, for the fields of a config record (QuadratureSpec,
    LambdaConfig); a bool or a non-number raises ConfigError."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _spec_integer(name: str, value) -> int:
    """value as an int, for config record fields; like _spec_number, and
    a non-finite or non-integral value also raises ConfigError."""
    n = _spec_number(name, value)
    if not (math.isfinite(n) and n.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(n)


def _check_index(upper: float, closed: bool):
    """The check of an index in (0, upper], or in (0, upper) unless closed."""
    interval = f"(0, {upper:g}{']' if closed else ')'}"

    def check(name: str, value) -> float:
        value = float(value)
        if not (0.0 < value < upper or closed and value == upper):
            raise InputError(f"{name} must lie in {interval}, got {value!r}")
        return value

    return check


def _check_measure(name: str, value) -> DiscretizedMeasure:
    if not isinstance(value, DiscretizedMeasure):
        raise InputError(f"{name} must be a DiscretizedMeasure")
    return value


def _param(check):
    """A parameter field whose value passes through check(name, value)."""
    return field(metadata={"check": check})


@cache
def _field_checks(cls) -> tuple:
    """(name, check) of each checked field of cls, in field order."""
    return tuple((f.name, f.metadata["check"]) for f in fields(cls) if "check" in f.metadata)


def _check_schedule(schedule, name: str) -> np.ndarray:
    sched = np.asarray(tuple(schedule), dtype=float)
    if sched.size < 3:
        raise InputError(f"{name} needs at least 3 points")
    if not np.all(np.isfinite(sched)) or np.min(sched) <= 0.0:
        raise InputError(f"{name} points must be finite and positive")
    if np.min(np.diff(sched)) <= 0.0:
        raise InputError(f"{name} must be strictly increasing")
    if sched[-1] / sched[0] < 100.0:
        raise InputError(f"{name} must span at least two decades")
    return sched


def _ladder_estimate(phi, schedule, name: str) -> tuple:
    """-log phi(x) / x^p along an increasing schedule.

    Returns (estimate, error_bound, x_used, schedule, values): the
    estimate is the value at the largest schedule point and the error
    bound its absolute gap to the value at the second largest.
    """
    sched = _check_schedule(schedule, name)
    vals = -phi.log_evaluate(sched) / sched**phi._power
    return (
        float(vals[-1]),
        abs(float(vals[-1]) - float(vals[-2])),
        float(sched[-1]),
        tuple(float(x) for x in sched),
        tuple(float(v) for v in vals),
    )


def _clears(value: float, error_bound: float, tol: float) -> bool:
    """The ladder decision: the estimate clears tol by more than its error bound.

    A non-finite estimate or bound (the exponent overflowed along the
    schedule) carries no answer either way, so it is refused.
    """
    tol = _check_nonneg_param("tol", tol)
    if not (math.isfinite(value) and math.isfinite(error_bound)):
        raise InputError(
            f"estimate {value!r} with error bound {error_bound!r} is not finite; "
            "no decision can be made on this schedule"
        )
    return value > tol + error_bound


def _limit_sup(rescaled, limit, name: str, x_max: float, grid_size: int) -> float:
    """sup over 0 < x <= x_max of |rescaled(x) - limit(x)|.

    The grid is log-spaced from min(1e-3, x_max / 2).  CFs are even and
    Laplace transforms live on x > 0, so the positive half carries the
    whole supremum.
    """
    x_max = _check_positive_param(name, x_max)
    grid_size = _check_m("grid_size", grid_size)
    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    grid = np.geomspace(min(1e-3, x_max / 2.0), x_max, grid_size)
    return float(np.max(np.abs(rescaled.evaluate(grid) - limit.evaluate(grid))))


def _measure_fields(measure: DiscretizedMeasure) -> dict:
    """The describe() entries of a canonical exponent's measure."""
    return {
        "atoms": [
            [float(p), float(m)] for p, m in zip(measure.atom_positions, measure.atom_masses)
        ],
        "density_points": int(measure.density_grid.size),
    }


class _Transform:
    """An exponent log phi(x) of power p, evaluated on checked arguments.

    Kinds implement _log_values on float arrays; _values defaults to its
    exponential.  Families supply _power and _check_domain, closed-form
    kinds a _kind for describe().
    """

    _power: int
    _kind: str

    def __post_init__(self):
        for name, check in _field_checks(type(self)):
            object.__setattr__(self, name, check(name, getattr(self, name)))

    @staticmethod
    def _check_domain(x: np.ndarray) -> None:
        raise NotImplementedError

    def _log_values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _values(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self._log_values(x))

    def evaluate(self, x):
        """phi(x), scalar in, scalar out (arrays pass through elementwise)."""
        arr = np.asarray(x, dtype=float)
        self._check_domain(arr)
        out = self._values(arr)
        return float(out) if arr.ndim == 0 else out

    def log_evaluate(self, x):
        """log phi(x), exact for every kind carrying an exponent."""
        arr = np.asarray(x, dtype=float)
        self._check_domain(arr)
        out = self._log_values(arr)
        return float(out) if arr.ndim == 0 else out

    def describe(self) -> dict:
        """The kind and the parameters, in field order."""
        return {"kind": self._kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class _RootRescaled:
    """phi_m(x) = phi(m^(1/p) x)^(1/m), evaluated through the exponent."""

    base: _Transform
    m: int = _param(_check_m)

    def _log_values(self, x):
        # m^(1/p) for p = 2 and p = 1; math.sqrt is correctly rounded
        # where a float power need not be
        stretch = math.sqrt(self.m) if self._power == 2 else self.m
        return self.base._log_values(stretch * x) / self.m

    def describe(self):
        return {"kind": "root_rescale", "m": self.m, "base": self.base.describe()}


@dataclass(frozen=True)
class _Product:
    """Pointwise product within one family: the law of the independent sum.

    Nested products of the same class are flattened; _family names the
    class every factor must belong to.
    """

    factors: tuple

    def __post_init__(self):
        flat = []
        for f in self.factors:
            if not isinstance(f, self._family):
                raise InputError(f"factors must be {self._family.__name__} instances")
            flat.extend(f.factors if isinstance(f, type(self)) else (f,))
        if not flat:
            raise InputError("product of zero factors")
        object.__setattr__(self, "factors", tuple(flat))

    def _log_values(self, x):
        out = np.zeros(x.shape)
        for f in self.factors:
            out = out + f._log_values(x)
        return out

    def describe(self):
        return {"kind": "product", "factors": [f.describe() for f in self.factors]}


def _rescale(law, m, fixed, cls, inverse=()):
    """law rescaled by the wrapper kind cls at order m, keeping the algebra exact.

    m = 1 and the fixed-point kind come back unchanged, a rescale of the
    same kind multiplies the orders, and the inverse step of the same
    order cancels; the empty default of inverse names no inverse kind.
    """
    m = _check_m("m", m)
    if m == 1 or isinstance(law, fixed):
        return law
    if isinstance(law, cls):
        return cls(law.base, law.m * m)
    if isinstance(law, inverse) and law.m == m:
        return law.base
    return cls(law, m)


# ---------------------------------------------------------------------------
# symmetric characteristic functions


class SymmetricCF(_Transform):
    """Base class; concrete kinds implement _log_values on float arrays."""

    _power = 2

    @staticmethod
    def _check_domain(t):
        if not np.isfinite(t).all():
            raise InputError("t must be finite")

    def cumulants(self) -> tuple[float, float]:
        """Second and fourth cumulant (kappa2, kappa4) when both are finite.

        Raises MomentError for heavy-tailed kinds.
        """
        raise NotImplementedError

    def has_finite_fourth_moment(self) -> bool:
        try:
            self.cumulants()
        except MomentError:
            return False
        return True


@dataclass(frozen=True)
class GaussianCF(SymmetricCF):
    """f(t) = exp(-v t^2 / 2) for a centered gaussian with variance v >= 0."""

    _kind = "gaussian"

    variance: float = _param(_check_nonneg_param)

    def _log_values(self, t):
        return -0.5 * self.variance * t * t

    def cumulants(self):
        return self.variance, 0.0


@dataclass(frozen=True)
class StableCF(SymmetricCF):
    """f(t) = exp(-|c t|^alpha), symmetric stable with 0 < alpha <= 2."""

    _kind = "stable"

    alpha: float = _param(_check_index(2.0, closed=True))
    scale: float = _param(_check_positive_param)

    def _log_values(self, t):
        return -np.abs(self.scale * t) ** self.alpha

    def cumulants(self):
        if self.alpha < 2.0:
            raise MomentError(
                f"symmetric stable law with alpha = {self.alpha} < 2 has no finite variance"
            )
        # alpha = 2 is the gaussian with variance 2 c^2
        return 2.0 * self.scale * self.scale, 0.0


@dataclass(frozen=True)
class SymmetrizedGammaCF(SymmetricCF):
    """f(t) = (1 + t^2)^(-g): difference of two independent gamma(g) variables.

    Shape 1 is the standard Laplace law.
    """

    _kind = "symgamma"

    shape: float = _param(_check_positive_param)

    def _log_values(self, t):
        return -self.shape * np.log1p(t * t)

    def cumulants(self):
        return 2.0 * self.shape, 12.0 * self.shape


@dataclass(frozen=True)
class CompoundPoissonCF(SymmetricCF):
    """f(t) = exp(rate * (cos(jump * t) - 1)).

    Compound Poisson with intensity ``rate`` and jumps of size ``jump``,
    each sign chosen with probability 1/2.
    """

    _kind = "cpoisson"

    rate: float = _param(_check_positive_param)
    jump: float = _param(_check_positive_param)

    def _log_values(self, t):
        # rate * (cos(jump t) - 1), in a form that does not cancel at small t
        s = np.sin(0.5 * self.jump * t)
        return -2.0 * self.rate * s * s

    def cumulants(self):
        h2 = self.jump * self.jump
        return self.rate * h2, self.rate * h2 * h2


@dataclass(frozen=True)
class CanonicalCF(SymmetricCF):
    """CF given by a canonical exponent

        log f(t) = -a t^2 - 4 * int_(0,inf) sin(t x / 2)^2 (1 + x^2) / x^2 dtheta(x)

    with gaussian coefficient a >= 0 and spectral measure theta carried
    as a DiscretizedMeasure (exact sums over atoms, trapezoid rule over
    the density table).  Every symmetric infinitely divisible CF has
    this shape; conversely any (a, theta) here produces a valid CF.
    """

    gaussian_coefficient: float = _param(_check_nonneg_param)
    measure: DiscretizedMeasure = _param(_check_measure)

    def _log_values(self, t):
        def kernel(tt, x):
            s = np.sin(0.5 * tt * x)
            return s * s * (1.0 + x * x) / (x * x)

        spectral = self.measure.integrate_outer(kernel, t)
        return -self.gaussian_coefficient * t * t - 4.0 * spectral

    def cumulants(self):
        # expand sin^2(tx/2) = (tx/2)^2 - (tx/2)^4 / 3 + ... inside the
        # exponent: each unit of mass at x contributes 2 (1 + x^2) to
        # kappa2 and 2 x^2 (1 + x^2) to kappa4.
        k2 = 2.0 * self.gaussian_coefficient
        k2 += self.measure.integrate(lambda x: 2.0 * (1.0 + x * x))
        k4 = self.measure.integrate(lambda x: 2.0 * x * x * (1.0 + x * x))
        return k2, k4

    def describe(self):
        return {
            "kind": "canonical",
            "gaussian_coefficient": self.gaussian_coefficient,
            **_measure_fields(self.measure),
        }


_EMPIRICAL_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class EmpiricalCF(SymmetricCF):
    """Symmetrized empirical CF of a sample: f(t) = mean(cos(t x_j)).

    This is the CF of the empirical distribution folded to be symmetric,
    so it is real and even but not necessarily positive.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).reshape(-1).copy()
        if arr.size == 0:
            raise InputError("sample set is empty")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise InputError(f"non-finite sample at index {int(bad[0])}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def _values(self, t):
        flat = t.reshape(-1)
        out = np.zeros(flat.shape)
        for start in range(0, self.samples.size, _EMPIRICAL_CHUNK):
            block = self.samples[start : start + _EMPIRICAL_CHUNK]
            out += np.sum(np.cos(np.outer(flat, block)), axis=1)
        return out.reshape(t.shape) / self.samples.size

    def _log_values(self, t):
        vals = self._values(t)
        flat_vals = np.atleast_1d(vals)
        flat_t = np.atleast_1d(t)
        bad = np.flatnonzero(flat_vals <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise PositivityError(float(flat_t[i]), float(flat_vals[i]))
        return np.log(vals)

    def cumulants(self):
        x2 = float(np.mean(self.samples**2))
        x4 = float(np.mean(self.samples**4))
        return x2, x4 - 3.0 * x2 * x2

    def describe(self):
        return {"kind": "empirical", "n": int(self.samples.size)}


@dataclass(frozen=True)
class ProductCF(_Product, SymmetricCF):
    """Pointwise product of CFs: the CF of the independent sum."""

    _family = SymmetricCF

    def _values(self, t):
        # plain product stays valid even when a factor dips negative
        out = np.ones(t.shape)
        for f in self.factors:
            out = out * f._values(t)
        return out

    def cumulants(self):
        k2 = 0.0
        k4 = 0.0
        for f in self.factors:
            a, b = f.cumulants()
            k2 += a
            k4 += b
        return k2, k4


@dataclass(frozen=True)
class RootRescaledCF(_RootRescaled, SymmetricCF):
    """f_m(t) = f(sqrt(m) t)^(1/m), evaluated through the exponent."""

    def cumulants(self):
        k2, k4 = self.base.cumulants()
        return k2, self.m * k4


@dataclass(frozen=True)
class SumRescaledCF(SymmetricCF):
    """f(t / sqrt(m))^m, the CF of the normalized m-fold sum."""

    base: SymmetricCF
    m: int = _param(_check_m)

    def _values(self, t):
        # integer power, well defined even for negative empirical values
        return self.base._values(t / math.sqrt(self.m)) ** self.m

    def _log_values(self, t):
        return self.m * self.base._log_values(t / math.sqrt(self.m))

    def cumulants(self):
        k2, k4 = self.base.cumulants()
        return k2, k4 / self.m

    def describe(self):
        return {"kind": "sum_rescale", "m": self.m, "base": self.base.describe()}


@dataclass(frozen=True)
class ScaledCF(SymmetricCF):
    """f(c t): the CF of c times the underlying variable."""

    base: SymmetricCF
    factor: float = _param(_check_positive_param)

    def _values(self, t):
        return self.base._values(self.factor * t)

    def _log_values(self, t):
        return self.base._log_values(self.factor * t)

    def cumulants(self):
        k2, k4 = self.base.cumulants()
        c2 = self.factor * self.factor
        return c2 * k2, c2 * c2 * k4

    def describe(self):
        return {"kind": "scaled", "factor": self.factor, "base": self.base.describe()}


def root_rescale(cf: SymmetricCF, m) -> SymmetricCF:
    """The m-th root rescale f(sqrt(m) t)^(1/m).

    Gaussian CFs are exact fixed points and come back unchanged; nested
    rescales collapse so the semigroup law holds exactly.
    """
    return _rescale(cf, m, GaussianCF, RootRescaledCF, SumRescaledCF)


def sum_rescale(cf: SymmetricCF, m) -> SymmetricCF:
    """The normalized m-fold sum CF f(t / sqrt(m))^m, inverse of root_rescale."""
    return _rescale(cf, m, GaussianCF, SumRescaledCF, RootRescaledCF)


def limit_gaussian(a: float) -> GaussianCF:
    """g(t) = exp(-a t^2), the degenerate-or-gaussian limit with coefficient a.

    The corresponding variance is 2 a; a = 0 gives the unit constant.
    """
    return GaussianCF(2.0 * _check_nonneg_param("gaussian coefficient", a))


def convolve(*cfs: SymmetricCF) -> SymmetricCF:
    """CF of the sum of independent variables: the pointwise product."""
    if len(cfs) == 1 and isinstance(cfs[0], SymmetricCF):
        return cfs[0]
    return ProductCF(tuple(cfs))


def from_samples(samples) -> EmpiricalCF:
    """Symmetrized empirical CF of a finite sample."""
    return EmpiricalCF(samples)


def scale_argument(cf: SymmetricCF, factor: float) -> SymmetricCF:
    """CF of factor * X, i.e. t -> f(factor * t)."""
    return ScaledCF(cf, factor)


def compound_poisson_canonical(rate: float, jump: float) -> CanonicalCF:
    """Canonical-exponent encoding of CompoundPoissonCF(rate, jump).

    The spectral measure carries a single atom at x = jump with mass
    rate * jump^2 / (2 (1 + jump^2)), which turns the canonical kernel
    into exactly -2 rate sin(jump t / 2)^2, the exponent of
    CompoundPoissonCF.
    """
    cp = CompoundPoissonCF(rate, jump)
    mass = cp.rate * cp.jump * cp.jump / (2.0 * (1.0 + cp.jump * cp.jump))
    return CanonicalCF(0.0, DiscretizedMeasure.from_atoms([(cp.jump, mass)]))

