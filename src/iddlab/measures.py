"""Discretized nonnegative measures on the positive half line.

Both canonical representations in this library (the spectral measure of
a symmetric characteristic exponent and the jump measure of a
subordinator exponent) store a measure the same way: a finite list of
atoms plus an optional tabulated density integrated by the trapezoid
rule.  Instances are immutable; the arrays are copied and frozen at
construction, and joined there into one weighted node set: the atoms
weighted by their masses, the grid points by trapezoid weight times
density.

Both exponents integrate a SeriesKernel, k(t, x) = g(x) h(c t x) with
h entire and h(0) = 0.  A point t with |c t| x_max <= 1 keeps every
argument of h within [-1, 1] and reads h from its Taylor series: with
r = x / x_max the integral is a polynomial in c t x_max whose
coefficients are the moments sum_j w_j g(x_j) r_j^k, taken once per
measure and kernel, so the point costs one Horner pass and no kernel
value.  Every other point costs one h value per node, computed in place
in row blocks of bounded memory and contracted with the weights w g.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError

__all__ = ["DiscretizedMeasure", "SeriesKernel"]

# kernel values held at once by integrate_outer (rows of t times nodes)
_BLOCK = 8192


class SeriesKernel(NamedTuple):
    """k(t, x) = factor(x) * h(scale * t * x), with h entire and h(0) = 0.

    ``ufuncs`` compute h in place, applied one after another to the
    array scale * t * x.  ``coeffs[k - 1]`` is the Taylor coefficient of
    v^(power * k) in h(v); there must be enough of them that the series
    meets h to rounding for |v| <= 1.
    """

    scale: float
    ufuncs: tuple
    factor: Callable
    power: int
    coeffs: tuple


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
        # per kernel: scaled nodes, folded weights, reach c x_max, series
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

    def _kernel_data(self, kernel: SeriesKernel) -> tuple:
        data = self._kernels.get(kernel)
        if data is None:
            weights = self._weights * kernel.factor(self._nodes)
            top = np.max(self._nodes)
            ratio = (self._nodes / top) ** kernel.power
            moments, rk = [], ratio
            for _ in kernel.coeffs:
                moments.append(rk @ weights)
                rk = rk * ratio
            series = (np.asarray(kernel.coeffs) * np.asarray(moments)).tolist()
            data = (kernel.scale * self._nodes, weights, kernel.scale * top, series)
            self._kernels[kernel] = data
        return data

    def integrate_outer(self, kernel: SeriesKernel, t: np.ndarray) -> np.ndarray:
        """Integrate ``kernel`` over x for every entry of t.

        The result has the shape of ``t``.  A point with
        |scale * t| * x_max <= 1 is one Horner pass over the kernel's
        series in the moments of the measure; every other point takes
        one kernel value per node, in row blocks of about _BLOCK values
        contracted with the weights.
        """
        t = np.asarray(t, dtype=float)
        rows, out = t.reshape(-1), np.zeros(t.size)
        if not self._nodes.size:
            return out.reshape(t.shape)
        nodes, weights, reach, series = self._kernel_data(kernel)
        near = np.abs(rows) <= 1.0 / abs(reach)
        count = np.count_nonzero(near)
        if count:
            y = (rows[near] * reach) ** kernel.power
            # Horner; out of place, which numpy does faster on a few points
            acc = series[-1] * y
            for d in series[-2::-1]:
                acc = (acc + d) * y
            out[near] = acc
        if count < rows.size:
            far = np.logical_not(near, out=near)
            rows = rows[far]
            step = max(_BLOCK // nodes.size, 1)
            values, buf = np.empty(rows.size), np.empty((min(step, rows.size), nodes.size))
            for i in range(0, rows.size, step):
                block = buf[:rows[i:i + step].size]
                np.multiply(rows[i:i + step, None], nodes, out=block)
                for ufunc in kernel.ufuncs:
                    ufunc(block, out=block)
                values[i:i + step] = block @ weights
            out[far] = values
        return out.reshape(t.shape)
