"""DiscretizedMeasure: one weighted node set, integrated group by group.

A point reads a moment polynomial for the node groups whose kernel
arguments stay within [-1, 1], and a kernel matrix in row blocks for the
nodes above them.  The canonical exponents are checked
against a direct reference that sums the atoms and applies np.trapezoid
to the density table on the whole points × nodes kernel matrix at once,
and against 40-digit mpmath sums on both sides of the cut.
"""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iddlab import CanonicalCF, CanonicalLaplace, DiscretizedMeasure, InputError, sum_rescale
from iddlab import cf_core, laplace_core, measures


def _measure(n_atoms, n_grid, seed):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.001, 0.1, n_grid)) if n_grid else np.empty(0)
    return DiscretizedMeasure(atom_positions=rng.uniform(0.01, 10.0, n_atoms),
                              atom_masses=rng.uniform(0.0, 2.0, n_atoms),
                              density_grid=grid,
                              density_values=rng.uniform(0.0, 2.0, n_grid))


def _reference(kernel, m, t):
    k = kernel(np.asarray(t)[..., None], m.atom_positions)
    out = np.sum(k * m.atom_masses, axis=-1)
    if m.density_grid.size:
        k = kernel(np.asarray(t)[..., None], m.density_grid)
        out = out + np.trapezoid(k * m.density_values, m.density_grid, axis=-1)
    return out


def _cf_reference(m, t):
    def kernel(tt, x):
        return np.sin(0.5 * tt * x) ** 2 * (1.0 + x * x) / (x * x)
    return -0.3 * t * t - 4.0 * _reference(kernel, m, t)


def _laplace_reference(m, s):
    def kernel(ss, a):
        return np.expm1(-a * ss) / np.expm1(-a)
    return -0.7 * s - _reference(kernel, m, s)


# law, reference, draw range, and the cut |t| <= cut / x_max as (cut, range
# of draws in units of cut / x_max)
LAWS = {
    "canonical-cf": (lambda m: CanonicalCF(0.3, m), _cf_reference, (-50.0, 50.0), (2.0, (-2.0, 2.0))),
    "canonical-laplace": (lambda m: CanonicalLaplace(0.7, m), _laplace_reference, (0.01, 50.0),
                          (1.0, (0.5, 1.5))),
}


def _shapes(step):
    # scalar, on and straddling a block boundary, two dimensional; the
    # last two draw around the cut, so both branches share one call
    return [((), False), ((1,), False), ((step,), False), ((step + 1,), False),
            ((2 * step - 1,), False), ((3, step + 1), False),
            ((2 * step + 1,), True), ((2, step), True)]


class TestIntegrateOuter:
    @given(n_atoms=st.integers(0, 3),
           n_grid=st.one_of(st.just(0), st.integers(2, 300)),
           seed=st.integers(0, 2**32 - 1),
           law=st.sampled_from(sorted(LAWS)))
    @example(n_atoms=0, n_grid=0, seed=0, law="canonical-cf")
    @example(n_atoms=0, n_grid=0, seed=0, law="canonical-laplace")
    @settings(max_examples=40, deadline=None)
    def test_matches_atoms_plus_trapezoid(self, n_atoms, n_grid, seed, law):
        build, reference, span, (cut, around) = LAWS[law]
        m = _measure(n_atoms, n_grid, seed)
        cf = build(m)
        step = max(measures._BLOCK // max(n_atoms + n_grid, 1), 1)
        x_max = max(np.max(m.atom_positions, initial=0.0), np.max(m.density_grid, initial=0.0))
        rng = np.random.default_rng(seed + 1)
        for shape, straddle in _shapes(step):
            lo, hi = np.multiply(around, cut / x_max) if straddle and x_max else span
            t = rng.uniform(lo, hi, shape)
            got = cf.log_evaluate(t)
            assert np.shape(got) == shape
            np.testing.assert_allclose(got, reference(m, t), rtol=1e-13, atol=0.0)
            assert np.asarray(cf.log_evaluate(t)).tobytes() == np.asarray(got).tobytes()

    def test_memory_stays_bounded_by_the_block(self):
        # a points x nodes matrix here would be 1e5 x 200 doubles, 160 MB a
        # copy; blocked rows keep the peak to a few arrays the size of t
        grid = np.geomspace(0.01, 10.0, 200)
        cf = CanonicalCF(0.3, DiscretizedMeasure(density_grid=grid, density_values=np.exp(-grid)))
        t = np.linspace(0.0, 50.0, 100_000)
        tracemalloc.start()
        try:
            cf.log_evaluate(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("build", [
        lambda: CanonicalCF(0.5, DiscretizedMeasure(atom_positions=[1.0, 2.0],
                                                    atom_masses=[0.0, 0.0])),
        lambda: cf_core.from_samples([0.0, -0.0, 0.0]),
        lambda: CanonicalCF(0.5, DiscretizedMeasure.from_atoms([(1.0, 0.7)])),
    ], ids=["zero-masses", "zero-samples", "weighted"])
    def test_tables_are_built_once_per_kernel(self, build, monkeypatch):
        # a measure without weighted nodes keeps its memo, None, as well
        calls, tables = [], measures._tables

        def counting(*args):
            calls.append(args[-1])
            return tables(*args)

        monkeypatch.setattr(measures, "_tables", counting)
        cf = build()
        for _ in range(5):
            cf.evaluate(np.array([0.5, 1.0]))
        assert len(calls) == 1


def _mp_nodes(mp, m):
    # the measure's node set in exact arithmetic: atoms, then trapezoid weights
    nodes = [(mp.mpf(x), mp.mpf(w)) for x, w in zip(m.atom_positions, m.atom_masses)]
    grid = [mp.mpf(x) for x in m.density_grid]
    for j, (x, d) in enumerate(zip(grid, m.density_values)):
        h = (x - grid[j - 1] if j else 0) + (grid[j + 1] - x if j + 1 < len(grid) else 0)
        nodes.append((x, h / 2 * mp.mpf(d)))
    return nodes


def _mp_cf(mp, m, t):
    t = mp.mpf(t)
    spectral = mp.fsum(w * mp.sin(t * x / 2) ** 2 * (1 + x * x) / (x * x)
                       for x, w in _mp_nodes(mp, m))
    return -mp.mpf(0.3) * t * t - 4 * spectral


def _mp_laplace(mp, m, s):
    s = mp.mpf(s)
    jump = mp.fsum(w * mp.expm1(-a * s) / mp.expm1(-a) for a, w in _mp_nodes(mp, m))
    return -mp.mpf(0.7) * s - jump


SEAM_MEASURES = {
    "atoms": lambda k: DiscretizedMeasure.from_atoms([(0.5 * k, 0.7), (10.0 * k, 1.3)]),
    "density": lambda k: DiscretizedMeasure(density_grid=np.geomspace(0.01, 10.0, 40) * k,
                                            density_values=np.exp(-np.geomspace(0.01, 10.0, 40))),
    "mixed": lambda k: DiscretizedMeasure(
        atom_positions=[0.5 * k, 3.0 * k], atom_masses=[0.7, 1.3],
        density_grid=np.geomspace(0.01, 10.0, 40) * k,
        density_values=np.exp(-np.geomspace(0.01, 10.0, 40))),
}

# |t| in units of the cut: just below, at and just above it, then further out
AROUND_CUT = np.array([0.5, 1.0 - 1e-9, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9, 2.0])
# x_max = 10 k; the cut is where |t| x_max / 2 (CF) or s x_max (Laplace) is
# 1.  Only t = 0, read from the series at every scale, is not in these units.
SEAM_SCALES = {
    "straddles": (1.0, AROUND_CUT),
    "all-series": (1e-6, np.array([0.01, 0.3, 0.7, 1.0])),
    "no-series": (1e6, np.array([1.5, 3.0, 7.0, 20.0])),
}


# law, its kernel, and its 40-digit sum
SEAM_LAWS = {
    "canonical-cf": (lambda m: CanonicalCF(0.3, m), cf_core._SPECTRAL_KERNEL, _mp_cf),
    "canonical-laplace": (lambda m: CanonicalLaplace(0.7, m), laplace_core._JUMP_KERNEL,
                          _mp_laplace),
}


def _group_reach(m, kernel):
    # scale * T_b for each group top T_b of m's nodes, lowest group first
    m.integrate_outer(kernel, 0.0)
    return m._kernels[kernel].reach


class TestSeriesSeam:
    """Both branches, and the cut between them, against 40-digit sums."""

    @pytest.mark.parametrize("scale", sorted(SEAM_SCALES))
    @pytest.mark.parametrize("kind", sorted(SEAM_MEASURES))
    def test_canonical_cf_matches_mpmath(self, kind, scale):
        mp = pytest.importorskip("mpmath")
        k, units = SEAM_SCALES[scale]
        m = SEAM_MEASURES[kind](k)
        t = 2.0 / (10.0 * k) * units
        t = np.concatenate([[0.0], t, -t])
        got = CanonicalCF(0.3, m).log_evaluate(t)
        with mp.workdps(40):
            want = np.array([float(_mp_cf(mp, m, v)) for v in t])
        assert got[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scale", sorted(SEAM_SCALES))
    @pytest.mark.parametrize("kind", sorted(SEAM_MEASURES))
    def test_canonical_laplace_matches_mpmath(self, kind, scale):
        mp = pytest.importorskip("mpmath")
        k, units = SEAM_SCALES[scale]
        m = SEAM_MEASURES[kind](k)
        s = 1.0 / (10.0 * k) * units
        got = CanonicalLaplace(0.7, m).log_evaluate(s)
        with mp.workdps(40):
            want = np.array([float(_mp_laplace(mp, m, v)) for v in s])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kind", sorted(SEAM_MEASURES))
    @pytest.mark.parametrize("law", ["canonical-cf", "canonical-laplace"])
    def test_every_group_top_is_a_cut(self, kind, law):
        # a point reads the series of every group whose top T keeps the
        # kernel argument within 1: points around each such cut, tiled so
        # that the call takes one kernel block per group
        mp = pytest.importorskip("mpmath")
        m = SEAM_MEASURES[kind](1.0)
        law_of, kernel, mp_law = SEAM_LAWS[law]
        units = np.array([1.0 - 1e-9, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9])
        t = np.concatenate([units / abs(r) for r in _group_reach(m, kernel)])
        reps = measures._BLOCK // (t.size * m._nodes.size) + 1
        got = law_of(m).log_evaluate(np.tile(t, reps))
        with mp.workdps(40):
            want = np.array([float(mp_law(mp, m, v)) for v in t])
        np.testing.assert_allclose(got, np.tile(want, reps), rtol=1e-14, atol=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("law, tiny", [("canonical-cf", 1e-160), ("canonical-laplace", 1e-310)])
    def test_a_tiny_node_gives_a_finite_exponent(self, law, tiny):
        # its weight w g(x) overflows (g = 1 + 1/x^2, or 1 / expm1(-x)), but
        # w g(x) x^p does not; in one block and in one per group
        mp = pytest.importorskip("mpmath")
        law_of, _, mp_law = SEAM_LAWS[law]
        m = DiscretizedMeasure.from_atoms([(tiny, 1.0), (1.0, 1.0)])
        for t in (np.array([0.5, 5.0]), np.geomspace(0.5, 1e6, 5000)):
            got = law_of(m).log_evaluate(t)
            with mp.workdps(40):
                want = np.array([float(mp_law(mp, m, v)) for v in t])
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_far_rows_take_kernel_values_only_above_their_group(self):
        args = []

        def counting_sin(block, out):
            args.append(np.abs(block))
            return np.sin(block, out=out)

        kernel = cf_core._SPECTRAL_KERNEL._replace(ufuncs=(counting_sin, np.square))
        grid = np.geomspace(0.01, 10.0, 200)
        m = DiscretizedMeasure(density_grid=grid, density_values=np.exp(-grid))
        t = np.geomspace(1e-3, 200.0, 4096)
        got = m.integrate_outer(kernel, t)
        assert got.tobytes() == m.integrate_outer(cf_core._SPECTRAL_KERNEL, t).tobytes()
        # the group of a point is the last whose top keeps 0.5 |t| T <= 1;
        # it takes a kernel value at every node above that top
        tops = np.abs(_group_reach(m, kernel)) / 0.5
        group = np.count_nonzero(0.5 * t[:, None] * tops <= 1.0, axis=1) - 1
        above = np.array([np.count_nonzero(grid > tops[b]) if b >= 0 else grid.size
                          for b in group])
        assert sum(a.size for a in args) == above.sum() < np.count_nonzero(above) * grid.size
        # and so never at a node more than one group ratio below the cut
        assert min(a.min() for a in args) > 0.999 / measures._GROUP_RATIO

    def test_laws_call_the_measure_positionally(self, monkeypatch):
        # a tracer that wraps integrate_outer may take positional arguments
        # only and read the points at index 2
        original = DiscretizedMeasure.integrate_outer
        sizes = []

        def positional(*args):
            sizes.append(np.size(args[2]))
            return original(*args)

        monkeypatch.setattr(DiscretizedMeasure, "integrate_outer", positional)
        m = SEAM_MEASURES["mixed"](1.0)
        t = np.linspace(0.01, 5.0, 7)
        cf = CanonicalCF(0.3, m)
        cf.log_evaluate(t)
        CanonicalLaplace(0.7, m).log_evaluate(t)
        sum_rescale(cf, 4).evaluate(t)
        assert sizes == [t.size] * 3


class TestConstruction:
    @pytest.mark.parametrize("atoms", [(), ((1.0, 0.5),)])
    def test_one_point_density_refused(self, atoms):
        pos, mass = [a[0] for a in atoms], [a[1] for a in atoms]
        with pytest.raises(InputError, match="at least two points"):
            DiscretizedMeasure(pos, mass, density_grid=[1.0], density_values=[5.0])

    @pytest.mark.parametrize("kwargs, match", [
        (dict(atom_positions=[[1.0]], atom_masses=[[1.0]]), "atom_positions must be one dim"),
        (dict(atom_positions=[1.0], atom_masses=[np.inf]), "atom_masses contains non-finite"),
        (dict(atom_positions=[1.0, 2.0], atom_masses=[1.0]), "atom_masses differ in length"),
        (dict(density_grid=[1.0, 2.0], density_values=[1.0]), "density_values differ in len"),
        (dict(atom_positions=[0.0], atom_masses=[1.0]), "positions must be strictly positive"),
        (dict(atom_positions=[1.0], atom_masses=[-1.0]), "masses must be nonnegative"),
        (dict(density_grid=[0.0, 1.0], density_values=[1.0, 1.0]), "grid must be strictly pos"),
        (dict(density_grid=[1.0, 1.0], density_values=[1.0, 1.0]), "strictly increasing"),
        (dict(density_grid=[1.0, 2.0], density_values=[1.0, -1.0]), "values must be nonnegative"),
        # values without a grid differ from it in length
        (dict(density_values=[1.0]), "density_values differ in length"),
    ], ids=["ndim", "non-finite", "atom-lengths", "density-lengths", "position-zero",
            "negative-mass", "grid-zero", "grid-repeats", "negative-density", "values-only"])
    def test_malformed_arrays_refused(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            DiscretizedMeasure(**kwargs)

    def test_node_set_is_not_a_field(self):
        m = _measure(2, 10, 3)
        assert [f.name for f in fields(m)] == [
            "atom_positions", "atom_masses", "density_grid", "density_values"]
        assert "_nodes" not in repr(m) and "_weights" not in repr(m)


class TestEquality:
    PAIRS = [
        (lambda: _measure(3, 10, 5), lambda: _measure(3, 10, 5), True),
        (lambda: _measure(3, 10, 5), lambda: _measure(3, 10, 6), False),
        (lambda: DiscretizedMeasure.from_atoms([(1.0, 1.0)]),
         lambda: DiscretizedMeasure.from_atoms([(1.0, 1.0)]), True),
        (lambda: DiscretizedMeasure.from_atoms([(1.0, 1.0)]),
         lambda: DiscretizedMeasure.from_atoms([(1.0, 2.0)]), False),
        (lambda: DiscretizedMeasure.from_atoms([(1.0, 1.0)]),
         lambda: DiscretizedMeasure.from_atoms([(1.0, 1.0), (2.0, 1.0)]), False),
        # -0.0 and 0.0 are equal entries, so they must hash alike
        (lambda: DiscretizedMeasure.from_atoms([(1.0, 0.0)]),
         lambda: DiscretizedMeasure.from_atoms([(1.0, -0.0)]), True),
    ]

    @pytest.mark.parametrize("wrap", [
        lambda m: m, lambda m: CanonicalCF(0.0, m), lambda m: CanonicalLaplace(0.5, m),
    ], ids=["measure", "canonical-cf", "canonical-laplace"])
    @pytest.mark.parametrize("a, b, equal", PAIRS, ids=[
        "same-arrays", "other-seed", "one-atom", "other-mass", "other-length", "signed-zero"])
    def test_compared_and_hashed_by_their_arrays(self, wrap, a, b, equal):
        x, y = wrap(a()), wrap(b())
        assert (x == y) is equal and (x != y) is not equal
        if equal:
            assert hash(x) == hash(y) and len({x, y}) == 1

    def test_unequal_to_other_types(self):
        m = _measure(2, 0, 1)
        assert m != (m.atom_positions, m.atom_masses) and m != CanonicalCF(0.0, m)
