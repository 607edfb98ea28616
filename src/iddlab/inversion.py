"""Distribution functions from symmetric CFs, and CDF-level comparisons.

For a symmetric law the inversion formula reduces to a single real
integral,

    F(x) = 1/2 + (1/pi) * int_0^inf f(t) sin(t x) / t dt,

whose integrand extends continuously to the value x at t = 0.  The
integral is truncated at a point T where |f| has decayed below 1e-10
and evaluated by composite Simpson rule on hybrid nodes: uniform on
(0, 1] (a quarter of the node budget), uniform in log t on [1, T] (the
rest).  Slowly decaying CFs that never reach that level are rejected
rather than integrated badly.

Each pass measures its own error.  Every other node of a pass is itself
a Simpson rule with half the budget, so the gap between the two rules
costs one small matrix product and no extra sine kernel.  Where the
error falls like h^p the gap is 2^p - 1 times the finer rule's error:
p = 4 for a smooth CF and 1 + alpha at a |t|^alpha cusp at t = 0, so for
every law here but stable ones with alpha < 1, p >= 2 and a third of
the gap is reported.  It is taken only on the columns that feed a
reported number (the error of a distance is the sum of its two
columns' errors).  Without a fixed budget the passes start at 1024
nodes and double while that estimate exceeds 1e-6, up to a cap past
which the call is refused.

Every entry point inverts through one core that handles many laws at
once: the laws share the largest of their truncation points, one node
set and one sine kernel, so comparing a target against a whole stable
grid costs one kernel and a few matrix products.  The core fixes one
column layout: the target, then each law compared with it (the gaussian
in approx_compare, the second law in kolmogorov_distance), then the
stable candidates alpha-major, of which only the closest counts.  Each
alpha is one unit-scale law read at c t for every scale c.  The least
alpha at the least scale sets the truncation: where its (c t)^alpha
first exceeds -log 1e-10, c t > 1, so every larger alpha or scale is
below that level there too.  Subnormal coefficients are flushed before
the sine-kernel product (see _coefficients).

On top of the pointwise CDF sit the Kolmogorov distance (max CDF gap
over a symmetric grid), a deterministic grid-search fit of a symmetric
stable law to a target CF, and approx_compare, which asks whether the
normalized m-fold sum of a family is closer to its matched gaussian or
to the best stable law with alpha < 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import moments
from .cf_core import GaussianCF, StableCF, SymmetricCF, _check_m, sum_rescale
from .cf_core import _spec_integer, _spec_number
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
# the automatic truncation point is the first probe t with |f(t)| below this
_EPS_TAIL = 1e-10
# candidate truncation points, shared by every automatic choice of T
_T_PROBE = np.geomspace(1e-2, _T_PROBE_MAX, 701)
_T_PROBE.flags.writeable = False
_CLAMP = 1e-9
# coefficients below the smallest normal float are flushed to 0
_TINY = np.finfo(float).tiny
_X_GRID_SIZE = 401
_X_SPAN_SCALES = 8.0
# the sine kernel is built in blocks of rows holding at most this many
# entries, and coefficient columns this many laws at a time, to bound memory
_KERNEL_BLOCK = 512 * 4096
_LAW_BLOCK = 32
# without a fixed budget, passes start here and double while the error
# estimate exceeds _TOL, up to the cap, which also bounds a fixed budget
_START_BUDGET = 1024
_TOL = 1e-6
_MAX_BUDGET = 2**18

TIE_TOLERANCE = 1e-4

DEFAULT_ALPHA_GRID = tuple(np.round(np.linspace(1.0, 1.95, 20), 10))
DEFAULT_SCALE_GRID = tuple(np.geomspace(0.25, 4.0, 21))


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation and node budget of the inversion.

    T = None picks the truncation point automatically as the first t
    with |f(t)| < 1e-10 (failing if that never happens by t = 1e5);
    laws inverted together share the largest of their points.

    N = None lets the error estimate choose the budget: passes start at
    1024 nodes and double until the estimate is within 1e-6, and a call
    that still misses it at 2^18 nodes raises QuadratureError.  An
    explicit N is a fixed budget: one pass, whose estimate is reported
    but never refused.
    """

    T: float | None = None
    N: int | None = None

    def __post_init__(self):
        if self.T is not None:
            t = _spec_number("T", self.T)
            if not math.isfinite(t) or t <= 0.0:
                raise ConfigError(f"T must be finite and positive, got {self.T!r}")
            object.__setattr__(self, "T", t)
        if self.N is not None:
            n = _spec_integer("node budget N", self.N)
            if not 64 <= n <= _MAX_BUDGET:
                raise ConfigError(f"node budget N must lie in [64, {_MAX_BUDGET}], got {self.N!r}")
            object.__setattr__(self, "N", n)


# cdf_from_cf keeps a fixed budget: for one law a node costs little, and
# at 4096 nodes its values stay within about 1e-9 of closed forms such as
# the stable law's near its t = 0 cusp, tighter than the 1e-6 the
# estimate aims at; reaching that through the estimate would take passes
# at 1024, 2048 and 4096 nodes for the same answer
_POINTWISE = QuadratureSpec(N=4096)


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


def _auto_truncation(*cfs: SymmetricCF) -> float:
    """Largest over cfs of the first probe t with |f(t)| < _EPS_TAIL; refuses a law never below."""
    k = -1
    for cf in cfs:
        below = np.flatnonzero(np.abs(cf.evaluate(_T_PROBE)) < _EPS_TAIL)
        if below.size == 0:
            raise QuadratureError(
                f"|f(t)| does not decay below {_EPS_TAIL:g} by t = {_T_PROBE_MAX:g}; "
                "pass an explicit truncation T"
            )
        k = max(k, int(below[0]))
    return float(_T_PROBE[k])


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _quarters(n: float) -> int:
    """n rounded to a positive multiple of 4, so that every other node
    of a Simpson rule over n intervals is again a Simpson rule."""
    return 4 * max(int(round(n / 4)), 1)


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _nodes_and_weights(N: int, T: float):
    """Hybrid Simpson nodes on [0, T], the t = 0 endpoint being node 0.

    Returns the nodes, their weights at budget N, and the weights of the
    rule on every other node (budget N/2), which share both segments'
    endpoints.  The arrays are read-only and cached: repeated calls on
    one law, and every pass at the candidates' truncation, reuse them.
    """
    if T > 1.0:
        n_lin = _quarters(N / 4)
        n_log = _quarters(N - n_lin)
        u = np.linspace(0.0, math.log(T), n_log + 1)
        t_log = np.exp(u)
        t = np.concatenate([np.linspace(0.0, 1.0, n_lin + 1), t_log[1:]])

        def weights(step):
            w_lin = _simpson_weights(n_lin // step, step / n_lin)
            # d t = t d u, so log-segment weights pick up a factor t
            w_log = _simpson_weights(n_log // step, step * (u[1] - u[0])) * t_log[::step]
            # t = 1 ends one segment and starts the next: one node, both weights
            w_lin[-1] += w_log[0]
            return np.concatenate([w_lin, w_log[1:]])

        return _frozen(t, weights(1), weights(2))
    n = _quarters(N)
    t = np.linspace(0.0, T, n + 1)
    return _frozen(t, _simpson_weights(n, T / n), _simpson_weights(n // 2, 2.0 * T / n))


def _coefficients(runs, cols, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Columns cols (ascending) of the runs' layout as w f(t) / t, subnormal entries set to 0.

    A candidate column is bit for bit StableCF(alpha, c).evaluate(t), as
    c t = 1 (t c); _values skips evaluate's finiteness check, since t c
    overflows only where f is 0.  Every multiply by a subnormal takes a
    slow microcode path in the matrix product, and a term below the
    smallest normal float is far below the rounding of any CDF sum, so
    the flush changes no result.
    """
    parts, j = [], 0
    for cf, s in runs:
        n = 1 if s is None else s.size
        pick = [k - j for k in cols if j <= k < j + n]
        if pick:
            parts.append(cf.evaluate(t)[:, None] if s is None
                         else cf._values(np.multiply.outer(t, s[pick])))
        j += n
    c = np.concatenate(parts, axis=1)
    c *= w[:, None]
    c /= t[:, None]
    c[np.abs(c) < _TINY] = 0.0
    return c


def _simpson_pass(runs, xs: np.ndarray, T: float, N: int):
    """CDFs of the layout's columns on one 1-d grid at node budget N.

    Returns the matrix whose column j holds F_j(xs), the node count, and
    errors(cols): for each column in cols, a third of the largest gap
    over the grid to the same column from every other node (see the
    module docstring).

    The sine kernel is built over the distinct |x| only, since
    F(-x) = 1 - F(x); coefficient columns w f(t) / t are formed a block
    of columns at a time, never for all at once.  When the kernel is
    built in one block, errors() reuses its even-node columns.
    """
    t, w, w_half = _nodes_and_weights(N, T)
    w0, t, w = w[0], t[1:], w[1:]
    w0_half, w_half, t_half = w_half[0], w_half[1:], t[1::2]
    ax, row = np.unique(np.abs(xs), return_inverse=True)
    step = max(_KERNEL_BLOCK // t.size, 1)
    chunks = [slice(x0, x0 + step) for x0 in range(0, ax.size, step)]
    width = sum(1 if c is None else c.size for _, c in runs)
    half = np.empty((ax.size, width))
    for rows in chunks:
        kernel = np.outer(ax[rows], t)
        np.sin(kernel, out=kernel)
        for j0 in range(0, width, _LAW_BLOCK):
            j1 = min(j0 + _LAW_BLOCK, width)
            half[rows, j0:j1] = kernel @ _coefficients(runs, range(j0, j1), t, w)
    # the integrand tends to x * f(0) = x at t = 0
    half += (w0 * ax)[:, None]
    out = half[row]
    out /= math.pi
    out *= np.sign(xs)[:, None]
    out += 0.5
    out[(out < 0.0) & (out >= -_CLAMP)] = 0.0
    out[(out > 1.0) & (out <= 1.0 + _CLAMP)] = 1.0

    def errors(cols: list) -> np.ndarray:
        c = _coefficients(runs, cols, t_half, w_half)
        coarse = np.empty((ax.size, len(cols)))
        for rows in chunks:
            k = kernel[:, 1::2] if len(chunks) == 1 else np.sin(np.outer(ax[rows], t_half))
            coarse[rows] = k @ c
        coarse += (w0_half * ax)[:, None]
        return np.max(np.abs(half[:, cols] - coarse), axis=0) / (3.0 * math.pi)

    return out, t.size + 1, errors


def _cdf_matrix(laws, xs: np.ndarray, quad: QuadratureSpec, grid=((), ())):
    """Invert laws and stable candidates on one grid, at quad's budget or to _TOL.

    Column layout: column 0 is the target and each other law is compared
    with it; then come the candidates of grid = (alphas, scales), both
    sorted, as runs (StableCF(alpha, 1), scales) after each law's run
    (law, None).  Only the closest candidate (first smallest sup gap)
    counts: the reported numbers rest on the column groups (0,), (0, j)
    for each other law j and (0, closest), a group's error being the sum
    of its columns' errors.

    All columns share one truncation T: quad.T, else the largest
    automatic T of the laws and of min(alphas) at min(scales).  A fixed
    quad.N takes one pass; otherwise passes start at _START_BUDGET and
    double until the largest group error is within _TOL.  Returns F
    (column j holds F_j(xs)), the quadrature (T, budget N and node count
    of the last pass, error estimate) and each column's gap to column 0.
    """
    alphas, scales = grid
    runs = [(cf, None) for cf in laws] + [(StableCF(a, 1.0), np.array(scales)) for a in alphas]
    T = quad.T or _auto_truncation(*laws, *[StableCF(a, scales[0]) for a in alphas[:1]])
    N = quad.N or _START_BUDGET
    while True:
        F, nodes, errors = _simpson_pass(runs, xs, T, N)
        gaps = np.max(np.abs(F[:, 1:] - F[:, :1]), axis=0)
        groups = [(0,)] + [(0, j) for j in range(1, len(laws))]
        if alphas:
            groups.append((0, len(laws) + int(np.argmin(gaps[len(laws) - 1 :]))))
        cols = sorted({j for g in groups for j in g})
        col_error = dict(zip(cols, errors(cols)))
        error = float(max(sum(col_error[j] for j in g) for g in groups))
        if quad.N is not None or error <= _TOL:
            return F, {"T": T, "N": N, "nodes": nodes, "error": error}, gaps
        if 2 * N > _MAX_BUDGET:
            raise QuadratureError(
                f"estimated quadrature error {error:.3g} exceeds {_TOL:g} "
                f"at the largest node budget N = {N}"
            )
        N *= 2


def cdf_from_cf(cf: SymmetricCF, x, quad: QuadratureSpec | None = None):
    """CDF of the law with CF f, at scalar or array x.

    Without quad the budget is a fixed 4096 nodes (see _POINTWISE).
    """
    quad = quad or _POINTWISE
    arr = np.asarray(x, dtype=float)
    vals = _cdf_matrix([cf], _x_values(arr), quad)[0][:, 0]
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
        raise InputError("x must be nonempty and finite")
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
    return float(_cdf_matrix([cf_a, cf_b], _x_values(x_grid, cf_a, cf_b), quad)[2][0])


def _stable_grid(alpha_grid, scale_grid):
    """Both candidate grids, parsed once into sorted floats (NaN fails the range checks)."""
    try:
        alphas = sorted(float(a) for a in alpha_grid)
        scales = sorted(float(c) for c in scale_grid)
    except (TypeError, ValueError, OverflowError):
        alphas = scales = []
    bad = [a for a in alphas if not 0.0 < a <= 2.0] + [c for c in scales if not 0.0 < c < math.inf]
    if bad or not alphas or not scales:
        raise InputError("alpha_grid and scale_grid must hold numbers, alpha in (0, 2] and scale"
                         f" in (0, inf), got {alpha_grid!r} and {scale_grid!r}")
    return alphas, scales


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
    scale.  The quadrature error is measured on the target and the best
    candidate.
    """
    quad = quad or QuadratureSpec()
    alphas, scales = _stable_grid(alpha_grid, scale_grid)
    xs = _x_values(x_grid, target)
    return _best_fit(_cdf_matrix([target], xs, quad, (alphas, scales))[2], alphas, scales)


def approx_compare(
    family_cf: SymmetricCF,
    m: int,
    alpha_grid=DEFAULT_ALPHA_GRID,
    scale_grid=DEFAULT_SCALE_GRID,
    quad: QuadratureSpec | None = None,
) -> ComparisonReport:
    """Gaussian versus best-stable approximation of the m-fold sum.

    The gaussian competitor carries the family's exact variance, which
    is also the variance of the normalized sum.  Stable candidates with
    alpha = 2 are dropped from the grid since the gaussian side already
    covers them; every other alpha outside (0, 2) raises InputError.
    Both distances use one shared x grid and one shared
    quadrature; distances within TIE_TOLERANCE (read at each call) of
    each other are called a tie.  The quadrature error is measured on
    the sum, the gaussian and the best candidate.
    """
    quad = quad or QuadratureSpec()
    m = _check_m("m", m)
    mu2 = moments(family_cf).mu2
    if mu2 <= 0.0:
        raise InputError("family must have strictly positive variance")
    alphas, scales = _stable_grid(alpha_grid, scale_grid)
    alphas = [a for a in alphas if a != 2.0]
    if not alphas:
        raise InputError("alpha grid is empty after removing alpha = 2")

    s_m = sum_rescale(family_cf, m)
    # rescaling keeps the variance, so the grid reaches 8 sqrt(mu2)
    xs = _x_values(None, s_m)
    _, quadrature, gaps = _cdf_matrix([s_m, GaussianCF(mu2)], xs, quad, (alphas, scales))
    d_gauss = float(gaps[0])
    fit = _best_fit(gaps[1:], alphas, scales)

    if abs(d_gauss - fit.distance) <= TIE_TOLERANCE:
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
        quadrature=quadrature,
    )
