"""Discretized nonnegative measures on the positive half line.

Both canonical representations in this library (the spectral measure of
a symmetric characteristic exponent and the jump measure of a
subordinator exponent) store a measure the same way: a finite list of
atoms plus an optional tabulated density integrated by the trapezoid
rule.  Instances are immutable; the arrays are copied and frozen at
construction, and joined there into one weighted node set: the atoms
weighted by their masses, the grid points by trapezoid weight times
density.  Integrals against it are evaluated in blocks of bounded
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["DiscretizedMeasure"]

# kernel values held at once by integrate_outer (rows of t times nodes)
_BLOCK = 8192


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
        return float(self.integrate_outer(lambda _, x: fn(x), 0.0))

    def integrate_outer(self, kernel, t: np.ndarray) -> np.ndarray:
        """Integrate ``kernel(t, x)`` over x for every entry of t.

        ``kernel`` must broadcast over a trailing x axis; the result has
        the shape of ``t``.  The measure is one weighted node set, so
        each block of rows of t is one kernel matrix contracted with
        the weights; a block holds about _BLOCK kernel values.
        """
        t = np.asarray(t, dtype=float)
        rows, out = t.reshape(-1), np.empty(t.size)
        step = max(_BLOCK // max(self._nodes.size, 1), 1)
        for i in range(0, rows.size, step):
            out[i:i + step] = kernel(rows[i:i + step, None], self._nodes) @ self._weights
        return out.reshape(t.shape)
