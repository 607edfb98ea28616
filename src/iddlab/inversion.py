"""Distribution functions from symmetric CFs, and CDF-level comparisons.

For a symmetric law the inversion formula reduces to a single real
integral,

    F(x) = 1/2 + (1/pi) * int_0^inf f(t) sin(t x) / t dt,

whose integrand extends continuously to the value x at t = 0.  The
integral is truncated at a point T where |f| has decayed below 1e-10
and evaluated by composite Simpson rule in u = log(1 + 4 t), uniform on
[0, log(1 + 4 T)]: nodes about evenly spaced below t = 1/4 and
geometrically above it, by one smooth map for every T.  Slowly decaying
CFs that never reach that level are rejected rather than integrated
badly.  T is always measured, never set by hand: the error estimate
below sees the rule on [0, T] only, not the tail past T.

Each pass measures the error of every column it inverts.  Every other
node of a pass is itself a Simpson rule with half the budget, read from
the same sines and the same CF values, so the gap between the two rules
costs one product of half the size.  Where the error falls like
h^p the gap is 2^p - 1 times the finer rule's error: p = 4 for a smooth
CF and 1 + alpha at a |t|^alpha cusp at t = 0, so for every law here but
stable ones with alpha < 1, p >= 2 and a third of the gap is reported.
Only the columns that feed a reported number enter the reported error
(the error of a distance is the sum of its two columns' errors).
Without a fixed budget the passes start at 1024 nodes and double while
that estimate exceeds 1e-6, up to a cap past which the call is refused.
A grid on which |x| T overflows is refused before a pass takes a sine.

Every entry point inverts through one core that handles many laws at
once: the laws share the largest of their truncation points, one node
set and one set of sines.  Column 0 is the target and each other law (the
second law in kolmogorov_distance) is compared with it.  Every column
a pass inverts is a unit law read at c t, for each unit and each scale c
of the pass: a law is its own unit at the one scale 1, and the stable
candidate of index alpha and scale c is the unit StableCF(alpha, 1) read
at c t, alpha-major.  The least alpha at the least scale sets a stable
grid's truncation: where its (c t)^alpha first exceeds -log 1e-10,
c t > 1, so every larger alpha or scale is below that level there too.
A pass weights each block of CF values once per rule, with no subnormal
factor left in any product it forms (see _flushed).  Every gap is read on
the distinct |x| of its grid, since |F_a - F_b| is the same at x and -x:
on the default grid, its 201 points x >= 0 (see _HALF_GRID); only
cdf_from_cf maps a pass back to the caller's x.  A pass of at most 24
columns on a grid k h, as the default one, takes 4 sines and cosines per
node by angle addition in place of 201 (see _angle_sums); every other
pass, the candidate table's first among them, multiplies a blocked sine
kernel (see _kernel_sums).

On top of the pointwise CDF sit the Kolmogorov distance (max CDF gap
over a symmetric grid), a deterministic grid-search fit of a symmetric
stable law to a target CF, and approx_compare, which asks whether the
normalized m-fold sum of a family is closer to its matched gaussian or
to the best stable law with alpha < 2.  All three read their laws by one
unit rule (see _in_units): without an x grid of the caller's, in units
of the largest of their length scales on the one default grid, so no
default distance depends on the unit of measurement; an explicit x grid
is absolute.  The two fits share one path (_fit): the candidates' CDF
columns on a grid are kept (see _candidate_table), so a call inverts
only the target, beside the unit gaussian in approx_compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cf_core import GaussianCF, StableCF, SymmetricCF, _check_m, scale_argument, sum_rescale
from .cf_core import _quote, _reals, _scale_proxy, _spec_integer, _spec_record
from .errors import ConfigError, InputError, QuadratureError

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

_T_PROBE_MAX = 1e6
# the automatic truncation point is the first probe t with |f(t)| below this
_EPS_TAIL = 1e-10
# candidate truncation points, shared by every automatic choice of T; the
# first 701 are exactly geomspace(1e-2, 1e5, 701)
_T_PROBE = np.geomspace(1e-2, _T_PROBE_MAX, 801)
_T_PROBE.flags.writeable = False
# Simpson nodes are uniform in log(1 + t / _TAU) (see _nodes_and_weights)
_TAU = 0.25
_CLAMP = 1e-9
# coefficients below 2^60 times the smallest normal float are flushed to 0
# (see _flushed)
_FLUSH_BELOW = 2.0**60 * np.finfo(float).tiny
_X_GRID_SIZE = 401
_X_SPAN_SCALES = 8.0
# the x >= 0 half of the default grid, 401 points on [-8, 8]: each is
# exactly k h, which _simpson_pass sums by angle addition
_HALF_GRID = np.arange(_X_GRID_SIZE // 2 + 1) * (_X_SPAN_SCALES / (_X_GRID_SIZE // 2))
_HALF_GRID.flags.writeable = False
# the sine kernel is built in blocks of rows holding at most this many
# entries, and multiplies its columns this many at a time, to bound memory
_KERNEL_BLOCK = 512 * 4096
_LAW_BLOCK = 32
# a pass of at most this many columns on a grid k h takes its sines by
# angle addition (see _angle_sums): per column that path does twice the
# kernel's multiplies, which past about 24 columns cost more than the
# sines it saves (timed at N = 1024 to 8192 on the default grid)
_ANGLE_COLUMNS = 24
# the gap scan after a pass takes column blocks of at most this many
# entries; the default grid's 201 x 420 candidate CDFs are one block
_GAP_BLOCK = 1 << 18
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
    """Node budget of the inversion; the truncation point is always measured.

    T is the first t of a log-spaced probe of [1e-2, 1e6] with
    |f(t)| < 1e-10, and a law that never gets there is refused with
    QuadratureError; laws inverted together share the largest of their
    points.

    N = None lets the error estimate choose the budget: passes start at
    1024 nodes and double until the estimate is within 1e-6, and a call
    that still misses it at 2^18 nodes raises QuadratureError.  An
    explicit N is a fixed budget: one pass, whose estimate is reported,
    and refused when it is 1 or more.  fit_stable and approx_compare
    hold the candidate table to N as well.
    """

    N: int | None = None

    def __post_init__(self):
        if self.N is not None:
            n = _spec_integer("node budget N", self.N)
            if not 64 <= n <= _MAX_BUDGET:
                raise ConfigError(f"node budget N must lie in [64, {_MAX_BUDGET}],"
                                  f" got {_quote(self.N)}")
            object.__setattr__(self, "N", n)


# cdf_from_cf keeps a fixed budget: the error estimate would stop at 1024
# nodes, where stable alpha = 0.8 reads 1.1e-7 off a 20-digit quadrature
# (estimate 8.8e-8, the cusp at t = 0); 4096 nodes hold it within 8.8e-9,
# and the other oracle laws within 1e-11, at little cost for one law
_POINTWISE = QuadratureSpec(N=4096)


@dataclass(frozen=True)
class StableFit:
    alpha: float
    scale: float
    distance: float


@dataclass(frozen=True)
class ComparisonReport:
    """Which idealization sits closer to the normalized m-fold sum; x_grid,
    scale_grid and best_scale are in units of sd, its standard deviation."""

    family: dict
    m: int
    sd: float
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
        # an overflowed exponent means f = 0 there
        with np.errstate(over="ignore"):
            below = np.flatnonzero(np.abs(cf.evaluate(_T_PROBE)) < _EPS_TAIL)
        if below.size == 0:
            raise QuadratureError(f"|f(t)| does not decay below {_EPS_TAIL:g} by"
                                  f" t = {_T_PROBE_MAX:g} for {cf.describe()}")
        k = max(k, int(below[0]))
    return float(_T_PROBE[k])


def _simpson_weights(n_intervals: int, h: float) -> np.ndarray:
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _nodes_and_weights(N: int, T: float):
    """Simpson nodes on [0, T] uniform in u = log(1 + t / _TAU), node 0 at
    t = 0: about evenly spaced below _TAU, where a stable law's cusp at
    t = 0 needs them, and geometrically above it.

    Returns the nodes, their weights at budget N (Simpson's in u times
    dt/du = _TAU + t) and those of the rule on every other node (budget
    N/2), read-only and cached for repeated calls at one (N, T).
    """
    # a multiple of 4 intervals, so that every other node is again a Simpson rule
    n = 4 * max(round(N / 4), 1)
    u = np.linspace(0.0, math.log1p(T / _TAU), n + 1)
    t = _TAU * np.expm1(u)
    dt = _TAU + t
    return _frozen(t, _simpson_weights(n, u[1]) * dt,
                   _simpson_weights(n // 2, 2.0 * u[1]) * dt[::2])


def _flushed(c: np.ndarray) -> np.ndarray:
    """c with its entries below 2^60 times the smallest normal float set
    to 0, in place.

    Every multiply by a subnormal takes a slow microcode path in the
    matrix product.  Above that threshold, a coefficient's product with
    any sine or cosine table entry above 2^-60 in magnitude is itself a
    normal float, so one flush per rule covers every product the angle
    addition forms from it (see _angle_sums).  The terms dropped lie
    below 3e-290, far below the rounding of any CDF sum (of order 1), so
    the flush changes no result.
    """
    c[np.abs(c) < _FLUSH_BELOW] = 0.0
    return c


def _weighted(c: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """c's rows times w / t in place, flushed (see _flushed)."""
    c *= w[:, None]
    c /= t[:, None]
    return _flushed(c)


def _columns(units, scales, c0: int, c1: int, t: np.ndarray) -> np.ndarray:
    """Columns c0 .. c1 - 1 as values f(t): column j is unit j // k read at
    scales[j % k] t, where k = len(scales).

    A law at the scale 1 is itself, bit for bit, as t 1 = t, and
    StableCF(alpha, 1) read at c t is StableCF(alpha, c).evaluate(t), as
    c t = t c; _values skips evaluate's finiteness check, since c t
    overflows only where f is 0.
    """
    k = len(scales)
    parts = []
    for i in range(c0 // k, (c1 - 1) // k + 1):
        # unit i holds columns k i .. k i + k - 1
        run = scales[max(c0 - k * i, 0):c1 - k * i]
        # an overflowed exponent means f = 0 there
        with np.errstate(over="ignore"):
            parts.append(units[i]._values(np.multiply.outer(t, run)))
    return np.concatenate(parts, axis=1)


def _kernel_sums(half, coarse, ax, units, scales, t, w, w_half):
    """Fill half with sin(outer(ax, t)) @ c, c the columns' coefficients
    (see _weighted), and coarse with the same sums at the N/2 rule.

    The kernel is built in blocks of rows, each multiplying the columns
    _LAW_BLOCK at a time.  The N/2 rule reads every other node, t[1::2],
    of the same kernel block and the same values, copied so that BLAS
    still takes both products.
    """
    step, n = max(_KERNEL_BLOCK // t.size, 1), half.shape[1]
    for x0 in range(0, ax.size, step):
        rows = slice(x0, x0 + step)
        kernel = np.outer(ax[rows], t)
        np.sin(kernel, out=kernel)
        even = kernel[:, 1::2].copy()
        for c0 in range(0, n, _LAW_BLOCK):
            c1 = min(c0 + _LAW_BLOCK, n)
            f = _columns(units, scales, c0, c1, t)
            coarse[rows, c0:c1] = even @ _weighted(f[1::2].copy(), t[1::2], w_half)
            half[rows, c0:c1] = kernel @ _weighted(f, t, w)


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^j for j = 0 .. n - 1, one row each, by doubling: rows k .. 2k - 1
    are rows 0 .. k - 1 times z^k, which is row k - 1 times z.

    For a unit z = e^(i a), taken from a float angle a, entry j is
    (cos, sin)(j a) within a few ulps of 1, at the largest angles of the
    default grid too.
    """
    out = np.empty((n, z.size), complex)
    out[0] = 1.0
    k = 1
    while k < n:
        np.multiply(out[:min(k, n - k)], out[k - 1] * z, out=out[k:2 * k])
        k *= 2
    return out


def _low_rows(K: int) -> int:
    """Q of the angle-addition split k = q Q + r of K rows: about sqrt(K / 2).

    Each remainder r costs one rotation of the coefficients and one
    matrix product, each quotient q one row of the high table, so fewer,
    taller products than at Q = sqrt(K) run faster: 10 low rows beside
    21 high ones on the default grid's K = 201.  A smaller Q grows the
    high table, which sets a pass's peak memory at large N.
    """
    return max(math.isqrt(K // 2), 1)


def _angle_sums(half, coarse, ax, units, scales, t, w, w_half):
    """Fill half and coarse as _kernel_sums does, on a grid ax = k h,
    k = 0 .. K - 1, by angle addition.

    With k = q Q + r, Q = _low_rows(K) and 0 <= r < Q,
    sin(k h t) = sin(q Q h t) cos(r h t) + cos(q Q h t) sin(r h t), so
    the rows r, r + Q, ... of the sums are one product: the table
    (sin, cos)(q Q h t) times the coefficients times (cos, sin)(r h t).
    The coefficients are flushed once per rule (see _flushed), so no
    factor of these products is subnormal.  The tables are the powers of
    e^(i Q h t) and e^(i h t) (see _powers), so a node costs 4 sines and
    cosines in place of K (201 on the default grid), and the N/2 rule
    reads every other node of both.  Memory holds the tables and a few
    vectors per column, with no kernel, so the rows need no blocks.
    """
    K, n = half.shape
    Q = _low_rows(K)
    f = _columns(units, scales, 0, n, t)
    c_half = _weighted(f[1::2].copy(), t[1::2], w_half)
    c = _weighted(f, t, w)
    # the only sines and cosines: e^(i Q h t) and e^(i h t) at each node
    angles = np.multiply.outer(ax[[Q, 1]], t)
    z = np.empty(angles.shape, complex)
    np.cos(angles, out=z.real)
    np.sin(angles, out=z.imag)
    high, low = _powers(z[0], len(range(0, K, Q))), _powers(z[1], Q)
    del angles, z
    # (sin, cos)(q Q h t) beside (cos, sin)(r h t)
    high = np.stack([high.imag, high.real], axis=1)
    low = np.stack([low.real, low.imag], axis=1)
    buf = np.empty(2 * t.size * n)
    for out, high, low, c in ((half, high, low, c),
                              (coarse, high[..., 1::2].copy(), low[..., 1::2], c_half)):
        high = high.reshape(high.shape[0], -1)
        rotated, c = buf[:2 * c.size].reshape(n, 2, -1), c.T.copy()[:, None]
        for r in range(Q):
            # each column's coefficients times (cos, sin)(r h t)
            np.multiply(low[r], c, out=rotated)
            out[r::Q] = high[:len(range(r, K, Q))] @ rotated.reshape(n, -1).T


def _simpson_pass(units, scales, xs: np.ndarray, T: float, N: int):
    """CDFs of every unit read at every scale (see _columns) on one 1-d
    grid at node budget N.

    Returns the matrix whose column j holds F_j(xs), the node count, and
    each column's error: a third of the largest gap over the grid to the
    same column from every other node (see the module docstring).

    The sine sums are taken over the distinct |x| only, since
    F(-x) = 1 - F(x); every caller but cdf_from_cf passes only those (see
    _in_units), so its rows map back to xs one to one.  Where they are
    k h for k = 0 .. K - 1, K > 2, and the pass has at most _ANGLE_COLUMNS
    columns, they come by angle addition (see _angle_sums); every other
    pass builds the blocked sine kernel (see _kernel_sums).  Both rules
    weight each block of CF values once.
    """
    t, w, w_half = _nodes_and_weights(N, T)
    w0, t, w = w[0], t[1:], w[1:]
    w0_half, w_half = w_half[0], w_half[1:]
    ax, row = np.unique(np.abs(xs), return_inverse=True)
    if not math.isfinite(float(ax[-1]) * float(t[-1])):
        raise QuadratureError(f"x t overflows at |x| = {ax[-1]:g} and T = {T:g}")
    half = np.empty((ax.size, len(units) * len(scales)))
    coarse = np.empty_like(half)
    uniform = ax.size > 2 and np.array_equal(ax, np.arange(ax.size) * ax[1])
    sums = _angle_sums if uniform and half.shape[1] <= _ANGLE_COLUMNS else _kernel_sums
    sums(half, coarse, ax, units, scales, t, w, w_half)
    # the integrand tends to x * f(0) = x at t = 0
    half += (w0 * ax)[:, None]
    coarse += (w0_half * ax)[:, None]
    coarse -= half
    errors = np.abs(coarse, out=coarse).max(axis=0) / (3.0 * math.pi)
    del coarse
    out = half[row]
    out /= math.pi
    out *= np.sign(xs)[:, None]
    out += 0.5
    out[(out < 0.0) & (out >= -_CLAMP)] = 0.0
    out[(out > 1.0) & (out <= 1.0 + _CLAMP)] = 1.0
    return out, t.size + 1, errors


def _sup_gaps(F: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Each column's largest gap to ref, scanned in blocks of columns."""
    step = max(_GAP_BLOCK // max(F.shape[0], 1), 1)
    gaps, buf = np.empty(F.shape[1]), np.empty((F.shape[0], min(step, F.shape[1])))
    for c0 in range(0, F.shape[1], step):
        block = F[:, c0:c0 + step]
        d = np.subtract(block, ref[:, None], out=buf[:, :block.shape[1]])
        gaps[c0:c0 + step] = np.abs(d, out=d).max(axis=0)
    return gaps


def _passes(run, quad: QuadratureSpec):
    """(result, N, error) of run(N) -> (result, error) at the budget quad fixes or chooses."""
    N = quad.N or _START_BUDGET
    while True:
        result, error = run(N)
        if quad.N is not None and not error < 1.0:
            # every reported number, a CDF value or a distance, lies in [0, 1]
            raise QuadratureError(f"estimated quadrature error {error:.3g} is not below 1 "
                                  f"at the fixed node budget N = {N}")
        if quad.N is not None or error <= _TOL:
            return result, N, error
        if 2 * N > _MAX_BUDGET:
            raise QuadratureError(f"estimated quadrature error {error:.3g} exceeds {_TOL:g} "
                                  f"at the largest node budget N = {N}")
        N *= 2


def _cdf_matrix(laws, xs: np.ndarray, quad: QuadratureSpec, rivals=None):
    """Invert laws on one grid, at quad's budget or to _TOL, beside optional rivals.

    Column 0 is the target and each other law is compared with it.
    rivals = (R, e) holds more columns on xs, fixed across passes, and
    their errors, of which only the closest (first smallest sup gap to
    column 0) counts.  Of all the columns' errors the reported numbers
    rest on the groups (0,), (0, j) for each other law j and (0, closest
    rival), a group's error being the sum of its columns', and the
    passes (see _passes) run on the largest group error.

    The laws are inverted at the largest of their truncation points.
    Returns F (column j holds law j's CDF on xs), the quadrature (T,
    budget N and node count of the last pass, error estimate) and the
    gap to column 0 of each other law, then each rival.
    """
    T = _auto_truncation(*laws)

    def run(N):
        F, nodes, e = _simpson_pass(laws, (1.0,), xs, T, N)
        gaps = _sup_gaps(F[:, 1:], F[:, 0])
        if rivals is not None:
            R, e_rivals = rivals
            gaps = np.concatenate([gaps, _sup_gaps(R, F[:, 0])])
            e = np.append(e, e_rivals[int(np.argmin(gaps[len(laws) - 1:]))])
        return (F, nodes, gaps), float(e[0] + np.max(e[1:], initial=0.0))

    (F, nodes, gaps), N, error = _passes(run, quad)
    return F, {"T": T, "N": N, "nodes": nodes, "error": error}, gaps


def cdf_from_cf(cf: SymmetricCF, x, quad: QuadratureSpec | None = None):
    """CDF of the law with CF f, at scalar or array x.

    Without quad the budget is a fixed 4096 nodes, four times where the
    error estimate stops on a stable law with alpha < 1 (see _POINTWISE).
    """
    quad = _spec_record("quad", quad, QuadratureSpec, _POINTWISE)
    arr = _reals("x", x)
    vals = _cdf_matrix([cf], _x_values(arr), quad)[0][:, 0]
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _x_values(x) -> np.ndarray:
    xs = _reals("x_grid", x).reshape(-1)
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise InputError("x must be nonempty and finite")
    return xs


def _in_units(x_grid, *cfs: SymmetricCF):
    """(s, xs, laws): cfs in units of s on xs, the distinct |x| at which
    every Kolmogorov gap is read (|F_a - F_b| is the same at x and -x).
    Without x_grid, s is the largest length scale of cfs (see _scale_proxy)
    and xs is _HALF_GRID; with it, s = 1 and xs is x_grid's, absolute."""
    if x_grid is not None:
        return 1.0, np.unique(np.abs(_x_values(x_grid))), list(cfs)
    try:
        scales = [_scale_proxy(cf) for cf in cfs]
    except InputError as refusal:
        raise InputError(f"{refusal}; pass x_grid explicitly") from None
    if not min(scales):
        raise InputError("the point mass at 0 has no length scale; pass x_grid explicitly")
    s = max(scales)
    return s, _HALF_GRID, [scale_argument(cf, 1.0 / s) for cf in cfs]


def kolmogorov_distance(
    cf_a: SymmetricCF,
    cf_b: SymmetricCF,
    quad: QuadratureSpec | None = None,
    x_grid=None,
) -> float:
    """max over the grid of |F_a(x) - F_b(x)|, read on its distinct |x|:
    without x_grid in units of the wider law's length scale on x in
    [-8, 8] (401 points, see _in_units), so the distance does not depend
    on the unit of measurement."""
    quad = _spec_record("quad", quad, QuadratureSpec, QuadratureSpec())
    _, xs, laws = _in_units(x_grid, cf_a, cf_b)
    return float(_cdf_matrix(laws, xs, quad)[2][0])


def _stable_grid(alpha_grid, scale_grid):
    """Both candidate grids, parsed once into sorted floats (NaN fails the
    range checks).  A refusal quotes the first entries at fault (the grid
    itself where it holds none) and counts the rest, never the whole grid."""
    grids = []
    for name, grid in (("alpha_grid", alpha_grid), ("scale_grid", scale_grid)):
        entry, values = grid, []
        try:
            for entry in grid:
                values.append(float(entry))
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"{name} must hold numbers, got {_quote(entry)}") from None
        grids.append(sorted(values))
    alphas, scales = grids
    bad = [f"alpha {a!r}" for a in alphas if not 0.0 < a <= 2.0]
    bad += [f"scale {c!r}" for c in scales if not 0.0 < c < math.inf]
    if bad or not alphas or not scales:
        more = f" and {len(bad) - 2} more" if len(bad) > 2 else ""
        raise InputError("alpha_grid and scale_grid must be nonempty, alpha in (0, 2] and"
                         f" scale in (0, inf), got {', '.join(bad[:2]) or 'an empty grid'}{more}")
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
    scale_grid=None,
    quad: QuadratureSpec | None = None,
    x_grid=None,
) -> StableFit:
    """Best symmetric stable law by Kolmogorov distance, exhaustively.

    All candidates are measured against the target on one shared x grid;
    ties resolve to the smallest alpha, then the smallest scale.  The
    target is read in units of s by kolmogorov_distance's rule (see
    _in_units): its length scale on x in [-8, 8] without x_grid, else
    s = 1 on x_grid.  The candidates come from the candidate table on
    that grid: scale_grid = None is DEFAULT_SCALE_GRID in units of s and
    the fit reports c s; an explicit scale_grid is read as c / s and the
    fit reports its entry.
    """
    quad = _spec_record("quad", quad, QuadratureSpec, QuadratureSpec())
    alphas, scales = _stable_grid(alpha_grid,
                                  DEFAULT_SCALE_GRID if scale_grid is None else scale_grid)
    s, xs, laws = _in_units(x_grid, target)
    if scale_grid is None:
        return _best_fit(_fit(laws, alphas, scales, quad, xs)[0], alphas, [c * s for c in scales])
    return _best_fit(_fit(laws, alphas, [c / s for c in scales], quad, xs)[0], alphas, scales)


@lru_cache(maxsize=2)
def _candidate_table(alphas: tuple, scales: tuple, quad: QuadratureSpec, x: bytes):
    """The candidates' CDF columns on the distinct |x| whose float bytes
    are x (0.68 MB at 420 columns on _HALF_GRID), alpha-major, each
    column's error and the quadrature (T, N, nodes).

    T is that of min(alphas) at min(scales).  Each pass after the first
    inverts again only the alphas from the first to the last with a
    column error above _TOL: on the default grid the first pass builds
    the sine kernel for all 420 columns, and the second takes alpha = 1's
    21 columns by angle addition.  The memo keeps the last two keys'
    tables, read-only, so that the default grid and a caller's can
    alternate; whatever changes _TOL must clear it.
    """
    xs = np.frombuffer(x)
    T = _auto_truncation(StableCF(alphas[0], scales[0]))
    units, k = [StableCF(a, 1.0) for a in alphas], len(scales)
    F, e = np.empty((xs.size, len(alphas) * k)), np.full(len(alphas) * k, np.inf)

    def run(N):
        redo = np.flatnonzero(e.reshape(-1, k).max(axis=1) > _TOL)
        a0, a1 = int(redo[0]), int(redo[-1]) + 1
        cols = slice(k * a0, k * a1)
        F[:, cols], nodes, e[cols] = _simpson_pass(units[a0:a1], scales, xs, T, N)
        return nodes, float(e.max())

    nodes, N, _ = _passes(run, quad)
    return (*_frozen(F, e), {"T": T, "N": N, "nodes": nodes})


def _fit(laws, alphas: list, scales: list, quad: QuadratureSpec, xs: np.ndarray):
    """The gaps to laws[0] of the other laws, then of the candidate table's
    columns, on xs (distinct |x|), and the quadrature, the table's under "candidates"."""
    F, e, candidates = _candidate_table(tuple(alphas), tuple(scales), quad, xs.tobytes())
    _, quadrature, gaps = _cdf_matrix(laws, xs, quad, (F, e))
    return gaps, {**quadrature, "candidates": dict(candidates)}


def approx_compare(
    family_cf: SymmetricCF,
    m: int,
    alpha_grid=DEFAULT_ALPHA_GRID,
    scale_grid=DEFAULT_SCALE_GRID,
    quad: QuadratureSpec | None = None,
) -> ComparisonReport:
    """Gaussian versus best-stable approximation of the m-fold sum.

    The normalized sum is read in units of its standard deviation sd
    (the family's) on x in [-8, 8], against the unit gaussian and the
    candidates StableCF(alpha, c), so no distance depends on the unit of
    measurement.  Stable candidates with alpha = 2 are dropped from the
    grid since the gaussian side already covers them; every other alpha
    outside (0, 2) raises InputError.  Distances within TIE_TOLERANCE
    (read at each call) of each other are called a tie.

    The candidates come from the candidate table (its T, N and nodes are
    quadrature.candidates).  The standardized sum and the gaussian share
    the larger of their truncation points, so the answer does not depend
    on sd.  Their passes run on the reported error, the sum's plus the
    larger of the gaussian's and the best candidate's.
    """
    quad = _spec_record("quad", quad, QuadratureSpec, QuadratureSpec())
    m = _check_m("m", m)
    mu2 = family_cf.cumulants()[0]
    if not 0.0 < mu2 < math.inf:
        raise InputError(f"family must have a strictly positive, finite variance, got {mu2!r}")
    alphas, scales = _stable_grid(alpha_grid, scale_grid)
    alphas = [a for a in alphas if a != 2.0]
    if not alphas:
        raise InputError("alpha grid is empty after removing alpha = 2")

    sd = math.sqrt(mu2)
    laws = [scale_argument(sum_rescale(family_cf, m), 1.0 / sd), GaussianCF(1.0)]
    gaps, quadrature = _fit(laws, alphas, scales, quad, _HALF_GRID)
    d_gauss = float(gaps[0])
    fit = _best_fit(gaps[1:], alphas, scales)

    verdict = ("tie" if abs(d_gauss - fit.distance) <= TIE_TOLERANCE
               else "stable closer" if fit.distance < d_gauss else "gaussian closer")

    return ComparisonReport(
        family=family_cf.describe(),
        m=m,
        sd=sd,
        d_gaussian=d_gauss,
        best_alpha=fit.alpha,
        best_scale=fit.scale,
        d_stable=fit.distance,
        verdict=verdict,
        alpha_grid=tuple(alphas),
        scale_grid=tuple(scales),
        x_grid={"min": -_X_SPAN_SCALES, "max": _X_SPAN_SCALES, "size": _X_GRID_SIZE},
        quadrature=quadrature,
    )
