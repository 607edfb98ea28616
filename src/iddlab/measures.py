"""Discretized nonnegative measures on the positive half line.

Three measures in this library are stored the same way: the spectral
measure of a symmetric characteristic exponent, the jump measure of a
subordinator exponent (the two canonical representations), and the
sample of an empirical CF, mass 2 / n at each |x_j| in units of the
largest |x|.  Each is a finite list of atoms plus an optional tabulated
density integrated by the trapezoid rule.  Instances are immutable; the
arrays are copied and frozen at construction, and joined there into one
weighted node set: the atoms weighted by their masses, the grid points
by trapezoid weight times density.

Each integrates a kernel k(t, x) = g(x) h(c t x) with h entire and
h(0) = 0; for the sample h = sin^2 and g = 1, and the integral is
1 - f(t).  Where |c t x| <= 1, h is read from its Taylor series.  The
nodes are sorted once and split into groups, each spanning a ratio
of _GROUP_RATIO below its top node T_b, and the series of all groups up
to b is kept as one polynomial in c t T_b whose coefficients are
moments of those nodes taken relative to T_b (a prefix table, built
once per measure and kernel; every ratio in it is at most 1).  A point t
reads the last group b with |c t| T_b <= 1: one Horner pass on that
group's row, plus one h value for each node above the group, computed
in place in row blocks of bounded memory and contracted with the
weights w g.  A point below the cut of the top group takes no h value
at all; a point above the cut of the lowest group takes one per node.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError

__all__ = ["DiscretizedMeasure"]

# kernel values held at once by integrate_outer (rows of t times nodes)
_BLOCK = 8192
# each node group spans this ratio below its top node
_GROUP_RATIO = 2.0


class _SeriesKernel(NamedTuple):
    """k(t, x) = g(x) h(scale * t * x), with h entire and h(0) = 0.

    ``ufuncs`` compute h in place, applied one after another to the
    array scale * t * x.  ``factor(x)`` is g(x) min(x, 1)^power, which
    must stay bounded where g does not (at x -> 0): the series is then
    (scale t)^power times a polynomial whose moments never hold g alone.
    ``coeffs[k - 1]`` is the Taylor coefficient of v^(power * k) in
    h(v); there must be enough of them that the series meets h to
    rounding for |v| <= 1.
    """

    scale: float
    ufuncs: tuple
    factor: Callable
    power: int
    coeffs: tuple


class _Tables(NamedTuple):
    """One measure read through one kernel: nodes ascending, in groups."""

    nodes: np.ndarray  # scale * x
    weights: np.ndarray  # w g(x), contracted with the kernel values
    starts: list  # starts[b + 1]: number of nodes in groups 0..b
    limits: np.ndarray  # ascending; limits[last - b] = 1 / |scale T_b|
    reach: list  # scale T_b, T_b the top node of group b
    front: list  # scale max(T_b, 1)
    series: list  # per group, coeffs[k] * P[b, k]
    overflow: bool  # some node's weight overflows


def _tables(nodes, weights, kernel: _SeriesKernel) -> _Tables | None:
    """The _Tables of the nodes that carry weight; None if none does."""
    p = kernel.power
    q = weights * kernel.factor(nodes)
    order = np.argsort(nodes, kind="stable")
    order = order[q[order] != 0.0]
    if not order.size:
        return None
    x, q = nodes[order], q[order]
    # groups counted down from the top node; x is ascending, so each is a run
    level = np.floor((np.log2(x[-1]) - np.log2(x)) / np.log2(_GROUP_RATIO))
    ends = np.append(np.flatnonzero(np.diff(level)) + 1, x.size)
    firsts, counts = np.append(0, ends[:-1]), np.diff(ends, prepend=0)
    top = x[ends - 1]
    top_or_1 = np.maximum(top, 1.0)
    # P[b, k] = sum over nodes of groups <= b of
    #   q (max(x, 1) / max(T_b, 1))^p (x / T_b)^(p k),
    # so that w g(x) (c t x)^(p (k + 1)) sums to (c t max(T_b, 1))^p
    # (c t T_b)^(p k) P[b, k]; q = w g(x) min(x, 1)^p is bounded
    moment = q * (np.maximum(x, 1.0) / np.repeat(top_or_1, counts)) ** p
    ratio = (x / np.repeat(top, counts)) ** p
    prefix = np.empty((top.size, len(kernel.coeffs)))
    for k in range(prefix.shape[1]):
        prefix[:, k] = np.add.reduceat(moment, firsts)
        moment = moment * ratio
    powers = np.arange(prefix.shape[1])
    for b in range(1, top.size):
        step = (top_or_1[b - 1] / top_or_1[b]) ** p * ((top[b - 1] / top[b]) ** p) ** powers
        prefix[b] += prefix[b - 1] * step
    with np.errstate(over="ignore", divide="ignore"):
        # w g(x) overflows only for x below about 1e-154 (CF) or 1e-308;
        # _batches gives such a node a kernel value only where
        # |c t| x > 1 / _GROUP_RATIO, and so |c t| is above 1e153
        far = q / np.minimum(x, 1.0) ** p
        limits = 1.0 / np.abs(kernel.scale * top[::-1])
    return _Tables(
        nodes=kernel.scale * x,
        weights=far,
        starts=np.append(0, ends).tolist(),
        limits=limits,
        reach=(kernel.scale * top).tolist(),
        front=(kernel.scale * top_or_1).tolist(),
        series=(np.asarray(kernel.coeffs) * prefix).tolist(),
        overflow=not np.all(np.isfinite(far)),
    )


def _batches(tables: _Tables, t: np.ndarray) -> list:
    """(group, points) pairs, the points as a mask or at most _BLOCK indices."""
    last = len(tables.reach) - 1
    far = np.abs(t) > tables.limits[0]
    count = np.count_nonzero(far)
    if not count:
        return [(last, None)]
    if count * tables.nodes.size <= _BLOCK and not tables.overflow:
        # one block: a point past the top group's cut takes every node
        return [(-1, far)] if count == t.size else [(last, ~far), (-1, far)]
    # a point at depth d reads the series of group last - d
    depth = np.searchsorted(tables.limits, np.abs(t))
    order = np.argsort(depth, kind="stable")
    ends = np.cumsum(np.bincount(depth)).tolist()
    return [(last - d, order[i:min(i + _BLOCK, hi)])
            for d, (lo, hi) in enumerate(zip([0] + ends, ends)) for i in range(lo, hi, _BLOCK)]


def _integrate_rows(tables: _Tables, kernel: _SeriesKernel, group: int, t: np.ndarray):
    """The integral at points t that all read the series of ``group``."""
    values, start = None, tables.starts[group + 1]
    if start < tables.nodes.size:
        nodes, weights = tables.nodes[start:], tables.weights[start:]
        step = max(_BLOCK // nodes.size, 1)
        values, buf = np.empty(t.size), np.empty(min(step, t.size) * nodes.size)
        for i in range(0, t.size, step):
            rows = t[i:i + step]
            block = buf[:rows.size * nodes.size].reshape(rows.size, nodes.size)
            np.multiply(rows[:, None], nodes, out=block)
            for ufunc in kernel.ufuncs:
                ufunc(block, out=block)
            values[i:i + step] = block @ weights
    if group >= 0:
        series, reach, front = tables.series[group], tables.reach[group], tables.front[group]
        y = (t * reach) ** kernel.power
        # Horner; out of place, which numpy does faster on a few points
        acc = series[-1] * y
        for d in series[-2:0:-1]:
            acc = (acc + d) * y
        acc = (acc + series[0]) * (y if front == reach else (t * front) ** kernel.power)
        values = acc if values is None else values + acc
    return values


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise InputError(f"{name} must be one dimensional")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscretizedMeasure:
    """Atoms ``(position, mass)`` plus an optional density table.

    Positions must be strictly positive (a mass at zero is always
    represented separately by the owning exponent), masses and density
    values nonnegative, and the density grid strictly increasing.  Two
    measures are equal when their four arrays are, entry by entry.
    """

    atom_positions: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_masses: np.ndarray = field(default_factory=lambda: np.empty(0))
    density_grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    density_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        pos = _frozen_array(self.atom_positions, "atom_positions")
        mass = _frozen_array(self.atom_masses, "atom_masses")
        grid = _frozen_array(self.density_grid, "density_grid")
        dens = _frozen_array(self.density_values, "density_values")
        if pos.shape != mass.shape:
            raise InputError("atom_positions and atom_masses differ in length")
        if grid.shape != dens.shape:
            raise InputError("density_grid and density_values differ in length")
        if pos.size and np.min(pos) <= 0.0:
            raise InputError("atom positions must be strictly positive")
        if mass.size and np.min(mass) < 0.0:
            raise InputError("atom masses must be nonnegative")
        if grid.size == 1:
            raise InputError("density grid needs at least two points")
        if grid.size:
            if np.min(grid) <= 0.0:
                raise InputError("density grid must be strictly positive")
            if np.min(np.diff(grid)) <= 0.0:
                raise InputError("density grid must be strictly increasing")
            if np.min(dens) < 0.0:
                raise InputError("density values must be nonnegative")
        object.__setattr__(self, "atom_positions", pos)
        object.__setattr__(self, "atom_masses", mass)
        object.__setattr__(self, "density_grid", grid)
        object.__setattr__(self, "density_values", dens)
        # trapezoid weights, np.trapezoid's rule: h_0/2, (h_(j-1)+h_j)/2, h_(n-1)/2
        half, trap = 0.5 * np.diff(grid), np.zeros(grid.size)
        trap[:-1] += half
        trap[1:] += half
        object.__setattr__(self, "_nodes", np.concatenate([pos, grid]))
        object.__setattr__(self, "_weights", np.concatenate([mass, trap * dens]))
        # per kernel: the _Tables of the nodes that carry weight, or None
        object.__setattr__(self, "_kernels", {})

    def _arrays(self) -> tuple:
        return (self.atom_positions, self.atom_masses, self.density_grid, self.density_values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which array_equal holds equal
        return hash(tuple((a + 0.0).tobytes() for a in self._arrays()))

    @classmethod
    def from_atoms(cls, atoms) -> "DiscretizedMeasure":
        """Build a purely atomic measure from ``[(position, mass), ...]``."""
        atoms = list(atoms)
        pos = [a[0] for a in atoms]
        mass = [a[1] for a in atoms]
        return cls(atom_positions=pos, atom_masses=mass)

    def integrate(self, fn) -> float:
        """Integrate a scalar function of the position against the measure."""
        return float(fn(self._nodes) @ self._weights)

    def integrate_outer(self, kernel: _SeriesKernel, t: np.ndarray) -> np.ndarray:
        """Integrate ``kernel`` over x for every entry of t.

        The result has the shape of ``t``.  A point reads the last node
        group b whose top T_b keeps |scale * t| * T_b <= 1: one Horner
        pass over the series of the groups up to b, plus one kernel value
        for each node above group b, in row blocks of about _BLOCK values
        contracted with the weights.  A call whose kernel values fit in
        one block stays one block and at most one Horner pass: a point
        past the top group's cut takes a kernel value at every node, as
        long as no node's weight overflows.
        """
        t = np.asarray(t, dtype=float)
        rows, out = t.reshape(-1), np.zeros(t.size)
        if kernel not in self._kernels:  # also when _tables gives None: no weighted node
            self._kernels[kernel] = _tables(self._nodes, self._weights, kernel)
        tables = self._kernels[kernel]
        if tables is None or not rows.size:
            return out.reshape(t.shape)
        batches = _batches(tables, rows)
        if len(batches) == 1:
            return _integrate_rows(tables, kernel, batches[0][0], rows).reshape(t.shape)
        for group, rows_b in batches:
            out[rows_b] = _integrate_rows(tables, kernel, group, rows[rows_b])
        return out.reshape(t.shape)
