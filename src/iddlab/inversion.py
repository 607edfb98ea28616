"""Distribution functions from symmetric CFs, and CDF-level comparisons.

For a symmetric law the inversion formula reduces to a single real
integral,

    F(x) = 1/2 + (1/pi) * int_0^inf f(t) sin(t x) / t dt,

whose integrand extends continuously to the value x at t = 0.  The
integral is truncated at a point T where f has decayed below a tail
threshold and evaluated by composite Simpson rule on hybrid nodes:
uniform on (0, 1] (a quarter of the node budget), uniform in log t on
[1, T] (the rest).  Slowly decaying CFs that never reach the threshold
are rejected rather than integrated badly.

Every entry point inverts through one core that handles many laws at
once: the laws share the largest of their truncation points, one node
set and one sine kernel, so comparing a target against a whole stable
grid costs one kernel and a few matrix products.

On top of the pointwise CDF sit the Kolmogorov distance (max CDF gap
over a symmetric grid), a deterministic grid-search fit of a symmetric
stable law to a target CF, and approx_compare, which asks whether the
normalized m-fold sum of a family is closer to its matched gaussian or
to the best stable law with alpha < 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import moments
from .cf_core import GaussianCF, StableCF, SymmetricCF, _check_m, sum_rescale
from .errors import ConfigError, InputError, MomentError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "StableFit",
    "ComparisonReport",
    "cdf_from_cf",
    "kolmogorov_distance",
    "fit_stable",
    "approx_compare",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_SCALE_GRID",
    "TIE_TOLERANCE",
]

_T_PROBE_MAX = 1e5
# candidate truncation points, shared by every automatic choice of T
_T_PROBE = np.geomspace(1e-2, _T_PROBE_MAX, 701)
_T_PROBE.flags.writeable = False
_CLAMP = 1e-9
_X_GRID_SIZE = 401
_X_SPAN_SCALES = 8.0
# the sine kernel is built at most this many distinct |x| at a time, and
# coefficient columns this many laws at a time, to bound memory
_X_CHUNK = 512
_LAW_BLOCK = 32

TIE_TOLERANCE = 1e-4

DEFAULT_ALPHA_GRID = tuple(np.round(np.linspace(1.0, 1.95, 20), 10))
DEFAULT_SCALE_GRID = tuple(np.geomspace(0.25, 4.0, 21))


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation and node budget for the inversion integral.

    T = None picks the truncation point automatically as the first t
    with |f(t)| < eps_tail (failing if that never happens by t = 1e5);
    laws inverted together share the largest of their points.
    """

    T: float | None = None
    N: int = 4096
    eps_tail: float = 1e-10

    def __post_init__(self):
        if self.T is not None:
            t = float(self.T)
            if not math.isfinite(t) or t <= 0.0:
                raise ConfigError(f"T must be finite and positive, got {self.T!r}")
            object.__setattr__(self, "T", t)
        if int(self.N) < 64:
            raise ConfigError("node budget N must be at least 64")
        object.__setattr__(self, "N", int(self.N))
        e = float(self.eps_tail)
        if not 0.0 < e < 1.0:
            raise ConfigError(f"eps_tail must lie in (0, 1), got {self.eps_tail!r}")


@dataclass(frozen=True)
class StableFit:
    alpha: float
    scale: float
    distance: float


@dataclass(frozen=True)
class ComparisonReport:
    """Which idealization sits closer to the normalized m-fold sum."""

    family: dict
    m: int
    d_gaussian: float
    best_alpha: float
    best_scale: float
    d_stable: float
    verdict: str
    alpha_grid: tuple
    scale_grid: tuple
    x_grid: dict
    quadrature: dict


def _auto_truncation(cf: SymmetricCF, eps_tail: float) -> float:
    vals = np.abs(cf.evaluate(_T_PROBE))
    below = np.flatnonzero(vals < eps_tail)
    if below.size == 0:
        raise QuadratureError(
            f"|f(t)| does not decay below eps_tail = {eps_tail:g} by t = {_T_PROBE_MAX:g}; "
            "pass an explicit truncation T"
        )
    return float(_T_PROBE[int(below[0])])


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _even_at_least(n: float, floor: int = 2) -> int:
    n = max(int(round(n)), floor)
    return n if n % 2 == 0 else n + 1


def _nodes_and_weights(quad: QuadratureSpec, T: float):
    """Hybrid Simpson nodes on (0, T]; the t = 0 endpoint is node 0."""
    if T > 1.0:
        n_lin = _even_at_least(quad.N / 4)
        n_log = _even_at_least(quad.N - n_lin)
        t_lin = np.linspace(0.0, 1.0, n_lin + 1)
        w_lin = _simpson_weights(n_lin, 1.0 / n_lin)
        u = np.linspace(0.0, math.log(T), n_log + 1)
        t_log = np.exp(u)
        # d t = t d u, so log-segment weights pick up a factor t
        w_log = _simpson_weights(n_log, u[1] - u[0]) * t_log
        # t = 1 ends one segment and starts the next: one node, both weights
        w_lin[-1] += w_log[0]
        t = np.concatenate([t_lin, t_log[1:]])
        w = np.concatenate([w_lin, w_log[1:]])
    else:
        n_lin = _even_at_least(quad.N)
        t = np.linspace(0.0, T, n_lin + 1)
        w = _simpson_weights(n_lin, T / n_lin)
    return t, w


def _cdf_matrix(cfs, xs: np.ndarray, quad: QuadratureSpec):
    """CDFs of several laws on one 1-d grid: column j holds F_j(xs).

    All laws share one truncation T (quad.T, else the largest automatic
    T among them) and one node set.  The sine kernel is built over the
    distinct |x| only, since F(-x) = 1 - F(x); coefficient columns
    w f(t) / t are formed a block of laws at a time, never for all laws
    at once.  Returns the (len(xs), len(cfs)) matrix, T and the number
    of nodes.
    """
    if quad.T is not None:
        T = quad.T
    else:
        T = max(_auto_truncation(cf, quad.eps_tail) for cf in cfs)
    t, w = _nodes_and_weights(quad, T)
    w0, t, w = w[0], t[1:], w[1:]
    ax, row = np.unique(np.abs(xs), return_inverse=True)
    half = np.empty((ax.size, len(cfs)))
    coeff = np.empty((t.size, min(len(cfs), _LAW_BLOCK)))
    for x0 in range(0, ax.size, _X_CHUNK):
        rows = slice(x0, x0 + _X_CHUNK)
        kernel = np.outer(ax[rows], t)
        np.sin(kernel, out=kernel)
        for j0 in range(0, len(cfs), _LAW_BLOCK):
            block = cfs[j0 : j0 + _LAW_BLOCK]
            c = coeff[:, : len(block)]
            for j, cf in enumerate(block):
                c[:, j] = w * cf.evaluate(t) / t
            half[rows, j0 : j0 + len(block)] = kernel @ c
    # the integrand tends to x * f(0) = x at t = 0
    half += (w0 * ax)[:, None]
    half /= math.pi
    out = half[row]
    out *= np.sign(xs)[:, None]
    out += 0.5
    out[(out < 0.0) & (out >= -_CLAMP)] = 0.0
    out[(out > 1.0) & (out <= 1.0 + _CLAMP)] = 1.0
    return out, T, t.size + 1


def _sup_gaps(F: np.ndarray) -> np.ndarray:
    """max over x of |F_j(x) - F_0(x)|, for each column j >= 1."""
    return np.max(np.abs(F[:, 1:] - F[:, :1]), axis=0)


def cdf_from_cf(cf: SymmetricCF, x, quad: QuadratureSpec | None = None):
    """CDF of the law with CF f, at scalar or array x."""
    quad = quad or QuadratureSpec()
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError("x must be finite")
    vals = _cdf_matrix([cf], arr.reshape(-1), quad)[0][:, 0]
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _scale_proxy(cf: SymmetricCF) -> float:
    """A length scale: the standard deviation, or 1/t_half for laws
    without one, where f(t_half) = 1/2."""
    try:
        mu2 = moments(cf).mu2
        if mu2 > 0.0:
            return math.sqrt(mu2)
    except MomentError:
        pass
    probe = np.geomspace(1e-8, _T_PROBE_MAX, 1301)
    vals = cf.evaluate(probe)
    below = np.flatnonzero(vals < 0.5)
    if below.size == 0:
        raise InputError(
            "cannot auto-scale an x grid for this CF; pass x_grid explicitly"
        )
    i = int(below[0])
    lo = probe[i - 1] if i > 0 else probe[0] / 10.0
    hi = probe[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(cf.evaluate(mid)) < 0.5:
            hi = mid
        else:
            lo = mid
    return 1.0 / hi


def _symmetric_grid(radius: float) -> np.ndarray:
    # built from its nonnegative half so that x and -x pair up exactly
    half = np.linspace(0.0, radius, _X_GRID_SIZE // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def _x_values(x_grid, *cfs: SymmetricCF) -> np.ndarray:
    if x_grid is None:
        radius = _X_SPAN_SCALES * max(_scale_proxy(cf) for cf in cfs)
        return _symmetric_grid(radius)
    xs = np.asarray(x_grid, dtype=float).reshape(-1)
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise InputError("x_grid must be nonempty and finite")
    return xs


def kolmogorov_distance(
    cf_a: SymmetricCF,
    cf_b: SymmetricCF,
    quad: QuadratureSpec | None = None,
    x_grid=None,
) -> float:
    """max over the grid of |F_a(x) - F_b(x)|.

    The default grid is symmetric with 401 points, reaching 8 standard
    deviations (or 8 half-decay scale units for heavy-tailed laws) of
    the wider law.
    """
    quad = quad or QuadratureSpec()
    xs = _x_values(x_grid, cf_a, cf_b)
    F = _cdf_matrix([cf_a, cf_b], xs, quad)[0]
    return float(_sup_gaps(F)[0])


def _stable_grid(alpha_grid, scale_grid):
    alphas = sorted(float(a) for a in alpha_grid)
    scales = sorted(float(c) for c in scale_grid)
    if not alphas or not scales:
        raise InputError("alpha_grid and scale_grid must be nonempty")
    for a in alphas:
        if not 0.0 < a <= 2.0:
            raise InputError(f"alpha grid entry {a!r} outside (0, 2]")
    for c in scales:
        if not (math.isfinite(c) and c > 0.0):
            raise InputError(f"scale grid entry {c!r} must be positive")
    candidates = [StableCF(alpha=a, scale=c) for a in alphas for c in scales]
    return alphas, scales, candidates


def _best_fit(gaps: np.ndarray, alphas: list, scales: list) -> StableFit:
    # candidates run alpha-major in ascending order and argmin keeps the
    # first minimum, so ties resolve to the smallest alpha, then scale
    i = int(np.argmin(gaps))
    a, c = divmod(i, len(scales))
    return StableFit(alpha=alphas[a], scale=scales[c], distance=float(gaps[i]))


def fit_stable(
    target: SymmetricCF,
    alpha_grid=DEFAULT_ALPHA_GRID,
    scale_grid=DEFAULT_SCALE_GRID,
    quad: QuadratureSpec | None = None,
    x_grid=None,
) -> StableFit:
    """Best symmetric stable law by Kolmogorov distance, exhaustively.

    All candidates are measured against the target on one shared x
    grid.  Grids are scanned in ascending order with strict improvement
    required, so ties resolve to the smallest alpha, then the smallest
    scale.
    """
    quad = quad or QuadratureSpec()
    alphas, scales, candidates = _stable_grid(alpha_grid, scale_grid)
    xs = _x_values(x_grid, target)
    F = _cdf_matrix([target, *candidates], xs, quad)[0]
    return _best_fit(_sup_gaps(F), alphas, scales)


def approx_compare(
    family_cf: SymmetricCF,
    m: int,
    alpha_grid=DEFAULT_ALPHA_GRID,
    scale_grid=DEFAULT_SCALE_GRID,
    quad: QuadratureSpec | None = None,
    tie_tol: float = TIE_TOLERANCE,
) -> ComparisonReport:
    """Gaussian versus best-stable approximation of the m-fold sum.

    The gaussian competitor carries the family's exact variance, which
    is also the variance of the normalized sum.  Stable candidates with
    alpha = 2 are dropped from the grid since the gaussian side already
    covers them.  Both distances use one shared x grid and one shared
    quadrature; verdicts within tie_tol of each other are called a tie.
    """
    quad = quad or QuadratureSpec()
    m = _check_m(m)
    mu2 = moments(family_cf).mu2
    if mu2 <= 0.0:
        raise InputError("family must have strictly positive variance")
    alphas = [a for a in alpha_grid if float(a) < 2.0]
    if not alphas:
        raise InputError("alpha grid is empty after removing alpha = 2")
    alphas, scales, candidates = _stable_grid(alphas, scale_grid)

    s_m = sum_rescale(family_cf, m)
    xs = _symmetric_grid(_X_SPAN_SCALES * math.sqrt(mu2))
    F, T, nodes = _cdf_matrix([s_m, GaussianCF(mu2), *candidates], xs, quad)
    gaps = _sup_gaps(F)
    d_gauss = float(gaps[0])
    fit = _best_fit(gaps[1:], alphas, scales)

    if abs(d_gauss - fit.distance) <= tie_tol:
        verdict = "tie"
    elif fit.distance < d_gauss:
        verdict = "stable closer"
    else:
        verdict = "gaussian closer"

    return ComparisonReport(
        family=family_cf.describe(),
        m=m,
        d_gaussian=d_gauss,
        best_alpha=fit.alpha,
        best_scale=fit.scale,
        d_stable=fit.distance,
        verdict=verdict,
        alpha_grid=tuple(alphas),
        scale_grid=tuple(scales),
        x_grid={"min": float(xs[0]), "max": float(xs[-1]), "size": int(xs.size)},
        quadrature={"T": T, "N": quad.N, "nodes": nodes, "eps_tail": quad.eps_tail},
    )
