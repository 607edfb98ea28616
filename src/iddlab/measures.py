"""Discretized nonnegative measures on the positive half line.

Both canonical representations in this library (the spectral measure of
a symmetric characteristic exponent and the jump measure of a
subordinator exponent) store a measure the same way: a finite list of
atoms plus an optional tabulated density integrated by the trapezoid
rule.  Instances are immutable; the arrays are copied and frozen at
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = ["DiscretizedMeasure"]


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise InputError(f"{name} must be one dimensional")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DiscretizedMeasure:
    """Atoms ``(position, mass)`` plus an optional density table.

    Positions must be strictly positive (a mass at zero is always
    represented separately by the owning exponent), masses and density
    values nonnegative, and the density grid strictly increasing.
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
        if grid.size:
            if np.min(grid) <= 0.0:
                raise InputError("density grid must be strictly positive")
            if grid.size > 1 and np.min(np.diff(grid)) <= 0.0:
                raise InputError("density grid must be strictly increasing")
            if np.min(dens) < 0.0:
                raise InputError("density values must be nonnegative")
        elif dens.size:
            raise InputError("density values without a grid")
        object.__setattr__(self, "atom_positions", pos)
        object.__setattr__(self, "atom_masses", mass)
        object.__setattr__(self, "density_grid", grid)
        object.__setattr__(self, "density_values", dens)

    @classmethod
    def from_atoms(cls, atoms) -> "DiscretizedMeasure":
        """Build a purely atomic measure from ``[(position, mass), ...]``."""
        atoms = list(atoms)
        pos = [a[0] for a in atoms]
        mass = [a[1] for a in atoms]
        return cls(atom_positions=pos, atom_masses=mass)

    def integrate(self, fn) -> float:
        """Integrate a scalar function of the position against the measure."""
        total = 0.0
        if self.atom_positions.size:
            total += float(np.sum(self.atom_masses * fn(self.atom_positions)))
        if self.density_grid.size > 1:
            total += float(
                np.trapezoid(fn(self.density_grid) * self.density_values, self.density_grid)
            )
        return total

    def integrate_outer(self, kernel, t: np.ndarray) -> np.ndarray:
        """Integrate ``kernel(t, x)`` over x for every entry of t.

        ``kernel`` must broadcast over a trailing x axis; the result has
        the shape of ``t``.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        if self.atom_positions.size:
            k = kernel(t[..., None], self.atom_positions)
            out += np.sum(k * self.atom_masses, axis=-1)
        if self.density_grid.size > 1:
            k = kernel(t[..., None], self.density_grid)
            out += np.trapezoid(k * self.density_values, self.density_grid, axis=-1)
        return out
