import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iddlab import (
    CanonicalCF,
    CompoundPoissonCF,
    DiscretizedMeasure,
    EmpiricalCF,
    GaussianCF,
    InputError,
    PositivityError,
    ProductCF,
    RootRescaledCF,
    ScaledCF,
    StableCF,
    SumRescaledCF,
    SymmetrizedGammaCF,
    compound_poisson_canonical,
    convolve,
    from_samples,
    limit_gaussian,
    root_rescale,
    scale_argument,
    sum_rescale,
)

GRID = np.linspace(-10.0, 10.0, 101)


def sup_diff(cf_a, cf_b, grid=GRID):
    return float(np.max(np.abs(cf_a.evaluate(grid) - cf_b.evaluate(grid))))


class TestFamilyValues:
    def test_gaussian_closed_form(self):
        assert GaussianCF(2.0).evaluate(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symgamma_closed_form(self):
        assert SymmetrizedGammaCF(1.0).evaluate(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_stable_closed_form(self):
        assert StableCF(1.0, 1.0).evaluate(2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_cpoisson_closed_form(self):
        got = CompoundPoissonCF(3.0, 1.0).evaluate(2.0)
        assert got == pytest.approx(math.exp(3.0 * (math.cos(2.0) - 1.0)), rel=1e-14)

    def test_scalar_in_scalar_out(self):
        v = GaussianCF(1.0).evaluate(0.5)
        assert isinstance(v, float)

    def test_array_in_array_out(self):
        v = GaussianCF(1.0).evaluate(np.array([0.0, 1.0]))
        assert isinstance(v, np.ndarray) and v.shape == (2,)

    def test_non_finite_t_rejected(self):
        with pytest.raises(InputError):
            GaussianCF(1.0).evaluate(math.inf)
        with pytest.raises(InputError):
            GaussianCF(1.0).evaluate(np.array([0.0, math.nan]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GaussianCF(-1.0),
            lambda: StableCF(0.0, 1.0),
            lambda: StableCF(2.5, 1.0),
            lambda: StableCF(1.0, -2.0),
            lambda: SymmetrizedGammaCF(0.0),
            lambda: CompoundPoissonCF(-1.0, 1.0),
            lambda: CompoundPoissonCF(1.0, 0.0),
            lambda: GaussianCF(math.nan),
            lambda: GaussianCF(math.inf),
            lambda: StableCF(math.nan, 1.0),
            lambda: StableCF(math.inf, 1.0),
            lambda: StableCF(1.0, math.nan),
            lambda: StableCF(1.0, math.inf),
            lambda: SymmetrizedGammaCF(math.nan),
            lambda: SymmetrizedGammaCF(math.inf),
            lambda: CompoundPoissonCF(math.nan, 1.0),
            lambda: CompoundPoissonCF(math.inf, 1.0),
            lambda: CompoundPoissonCF(1.0, math.nan),
            lambda: CompoundPoissonCF(1.0, math.inf),
            lambda: CanonicalCF(math.nan, DiscretizedMeasure.from_atoms([(1.0, 0.5)])),
            lambda: CanonicalCF(math.inf, DiscretizedMeasure.from_atoms([(1.0, 0.5)])),
            lambda: CanonicalCF(0.5, [(1.0, 0.5)]),
            lambda: ScaledCF(GaussianCF(1.0), 0.0),
            lambda: ScaledCF(GaussianCF(1.0), math.nan),
            lambda: ScaledCF(GaussianCF(1.0), math.inf),
            lambda: RootRescaledCF(StableCF(1.5, 1.0), 0),
            lambda: RootRescaledCF(StableCF(1.5, 1.0), 2.5),
            lambda: RootRescaledCF(StableCF(1.5, 1.0), math.nan),
            lambda: RootRescaledCF(StableCF(1.5, 1.0), math.inf),
            lambda: SumRescaledCF(StableCF(1.5, 1.0), 0),
            lambda: SumRescaledCF(StableCF(1.5, 1.0), 2.5),
            lambda: SumRescaledCF(StableCF(1.5, 1.0), math.nan),
            lambda: SumRescaledCF(StableCF(1.5, 1.0), math.inf),
            lambda: RootRescaledCF(StableCF(1.5, 1.0), "3"),
            lambda: RootRescaledCF(StableCF(1.5, 1.0), 10**400),
            lambda: SumRescaledCF(StableCF(1.5, 1.0), None),
            lambda: SumRescaledCF(StableCF(1.5, 1.0), [2]),
            lambda: root_rescale(StableCF(1.5, 1.0), "3"),
            lambda: sum_rescale(GaussianCF(1.0), 10**400),
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(InputError):
            build()


class TestCanonicalEncoding:
    def test_compound_poisson_roundtrip(self):
        # single atom chosen so the canonical integral reproduces
        # rate * (cos t - 1)
        canon = compound_poisson_canonical(1.0, 1.0)
        direct = CompoundPoissonCF(1.0, 1.0)
        ts = np.linspace(-5.0, 5.0, 201)
        assert sup_diff(canon, direct, ts) < 1e-12

    def test_pure_gaussian_coefficient(self):
        canon = CanonicalCF(0.5, DiscretizedMeasure())
        assert sup_diff(canon, GaussianCF(1.0)) < 1e-15

    def test_density_component_positive(self):
        grid = np.linspace(0.5, 2.0, 64)
        dens = np.full(64, 0.1)
        measure = DiscretizedMeasure((), (), grid, dens)
        canon = CanonicalCF(0.0, measure)
        vals = canon.evaluate(GRID)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)


class TestRootRescale:
    @pytest.mark.parametrize("v", [0.5, 2.0])
    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_gaussian_fixed_point(self, v, m):
        assert sup_diff(root_rescale(GaussianCF(v), m), GaussianCF(v)) < 1e-12

    def test_symgamma_closed_form(self):
        # f_m(t) = (1 + m t^2)^(-gamma/m)
        got = root_rescale(SymmetrizedGammaCF(1.0), 4).evaluate(1.0)
        assert got == pytest.approx(5.0 ** (-0.25), rel=1e-14)

    def test_stable_closed_form(self):
        # f_m(t) = exp(-m^(alpha/2-1) |c t|^alpha)
        got = root_rescale(StableCF(1.0, 1.0), 4).evaluate(2.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_symgamma_not_fixed_point(self):
        dev = sup_diff(root_rescale(SymmetrizedGammaCF(1.0), 4), SymmetrizedGammaCF(1.0))
        assert dev > 1e-3

    def test_m_validation(self):
        with pytest.raises(InputError):
            root_rescale(GaussianCF(1.0), 0)
        with pytest.raises(InputError):
            root_rescale(GaussianCF(1.0), 2.5)

    def test_m_one_is_identity(self):
        cf = SymmetrizedGammaCF(1.0)
        assert root_rescale(cf, 1) is cf

    def test_empirical_positivity_error_names_t(self):
        cf = root_rescale(from_samples([1.0, -1.0]), 2)  # base CF is cos(t)
        with pytest.raises(PositivityError) as err:
            cf.evaluate(3.0)  # cos(sqrt(2) * 3) < 0
        assert err.value.t == pytest.approx(3.0 * math.sqrt(2.0))


class TestSumRescale:
    @pytest.mark.parametrize("m", [2, 7])
    def test_gaussian_stability(self, m):
        assert sup_diff(sum_rescale(GaussianCF(1.5), m), GaussianCF(1.5)) < 1e-12

    def test_symgamma_closed_form(self):
        got = sum_rescale(SymmetrizedGammaCF(1.0), 4).evaluate(2.0)
        assert got == pytest.approx(0.0625, rel=1e-14)

    def test_inverse_of_root_rescale(self):
        cf = SymmetrizedGammaCF(2.0)
        assert sup_diff(sum_rescale(root_rescale(cf, 7), 7), cf) < 1e-12

    def test_inverse_collapses_to_base(self):
        cf = SymmetrizedGammaCF(2.0)
        assert sum_rescale(root_rescale(cf, 7), 7) is cf
        assert root_rescale(sum_rescale(cf, 5), 5) is cf


class TestSemigroup:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m,k", [(2, 3), (4, 4)])
    def test_root_rescale_composes(self, gamma, m, k):
        cf = SymmetrizedGammaCF(gamma)
        twice = root_rescale(root_rescale(cf, m), k)
        once = root_rescale(cf, m * k)
        assert sup_diff(twice, once) < 1e-12

    def test_nested_collapse(self):
        cf = SymmetrizedGammaCF(1.0)
        nested = root_rescale(root_rescale(cf, 2), 3)
        assert nested.m == 6 and nested.base is cf


class TestLimitGaussian:
    def test_zero_coefficient_degenerate(self):
        assert np.all(limit_gaussian(0.0).evaluate(GRID) == 1.0)

    def test_closed_form(self):
        assert limit_gaussian(1.0).evaluate(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_variance_is_twice_coefficient(self):
        # second moment via a central second difference of the CF
        g = limit_gaussian(0.5)
        h = 1e-4
        mu2 = -(g.evaluate(h) - 2.0 * g.evaluate(0.0) + g.evaluate(-h)) / h**2
        assert mu2 == pytest.approx(1.0, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            limit_gaussian(-0.1)


class TestFromSamples:
    def test_degenerate_at_zero(self):
        assert np.all(from_samples([0.0]).evaluate(GRID) == 1.0)
        t = np.array([0.0, 1e-300, 1.0, 1e10, 1e300, -1e300])
        cf = from_samples([0.0, -0.0, 0.0])
        assert np.all(cf.evaluate(t) == 1.0) and np.all(cf.log_evaluate(t) == 0.0)

    def test_symmetric_pair_is_cosine(self):
        cf = from_samples([1.0, -1.0])
        ts = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(cf.evaluate(ts), np.cos(ts), atol=1e-15)

    def test_two_point_value(self):
        assert from_samples([1.0, 2.0]).evaluate(math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            from_samples([])

    def test_non_finite_rejected_with_index(self):
        with pytest.raises(InputError, match="index 2"):
            from_samples([0.0, 1.0, math.inf])

    def test_large_sample_chunking(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=10000)
        cf = from_samples(xs)
        t = 0.7
        expect = float(np.mean(np.cos(t * xs)))
        assert cf.evaluate(t) == pytest.approx(expect, abs=1e-12)


def _mp_gap(mp, samples, t, exact=False):
    """1 - f(t) = (2 / n) sum_j sin(t x_j / 2)^2, summed to the working precision.

    With exact, t x_j / 2 is the exact product of the floats.  Otherwise it
    is the float product (t max|x|) (|x_j| / max|x| / 2) that the unit
    normalization forms: at large t x_j no float evaluation avoids that
    argument's rounding, so the sum and the series are what get compared.
    """
    xs = np.abs(np.asarray(samples, dtype=float))
    unit = float(np.max(xs)) or 1.0
    if exact:
        args = [mp.mpf(float(t)) * mp.mpf(float(x)) / 2 for x in xs]
    else:
        args = [mp.mpf(float(v)) for v in (t * unit) * (0.5 * (xs / unit))]
    return 2 * mp.fsum(mp.sin(a) ** 2 for a in args) / len(xs)


class TestEmpiricalKernel:
    """1 - f(t) read as (2 / n) sum sin(t x_j / 2)^2 over the sample's measure."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 2000),
        decade=st.floats(-200.0, 200.0),
        spread=st.floats(0.0, 400.0),
        seed=st.integers(0, 2**32 - 1),
        units=st.lists(st.one_of(st.floats(-12.0, 0.0), st.floats(0.0, 150.0)),
                       min_size=1, max_size=4),
    )
    def test_matches_mpmath(self, n, decade, spread, seed, units):
        # units are log10(t max|x|), up to 1e150: there the samples more
        # than 1e160 below the largest, whose weight underflows, carry no
        # term above rounding
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        xs = 10.0**decade * rng.standard_normal(n) * 10.0 ** (-spread * rng.random(n))
        xs[rng.random(n) < 0.05] = 0.0
        big = float(np.max(np.abs(xs)))
        units = np.array(units)
        logs = units - (math.log10(big) if big else 0.0)
        units, t = units[logs < 300.0], 10.0 ** logs[logs < 300.0]
        cf = from_samples(xs)
        with mp.workdps(40):
            gap = [_mp_gap(mp, xs, v) for v in t]
            exact = [_mp_gap(mp, xs, v, exact=True) for v in t[units <= 0.0]]
            want = np.array([float(1 - g) for g in gap])
            near = np.array([g <= 0.5 for g in gap], dtype=bool)
            log_want = np.array([float(mp.log1p(-g)) for g, ok in zip(gap, near) if ok])
            exact_want = np.array([float(1 - g) for g in exact])
        np.testing.assert_allclose(cf.evaluate(t), want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(cf.log_evaluate(t[near]), log_want, rtol=1e-14, atol=0.0)
        # where t max|x| <= 1 the argument's rounding is below 1e-15 too
        np.testing.assert_allclose(cf.evaluate(t[units <= 0.0]), exact_want, rtol=0.0,
                                   atol=1e-13)

    @pytest.mark.parametrize("c", [1e-200, 1e-100, 1e100, 1e200])
    def test_unit_free(self, c):
        xs = np.random.default_rng(5).standard_normal(500)
        t = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 40)]) / np.max(np.abs(xs))
        base, scaled = from_samples(xs), from_samples(c * xs)
        np.testing.assert_allclose(scaled.evaluate(t / c), base.evaluate(t), rtol=0.0,
                                   atol=1e-15)
        np.testing.assert_allclose(scaled.log_evaluate(t / c), base.log_evaluate(t),
                                   rtol=1e-14, atol=0.0)

    def test_extreme_range(self):
        # 5e-324 underflows to 0 in units of 1e300 and carries no atom; the
        # values are those of mean(cos(t x)), whose term there is 1
        xs = np.array([1e300, 5e-324])
        t = np.array([0.0, 1e-300, 2e-300, 3e-300, 1e-160, 1e-10])
        want = np.mean(np.cos(np.outer(t, xs)), axis=1)
        cf = from_samples(xs)
        np.testing.assert_allclose(cf.evaluate(t), want, rtol=0.0, atol=1e-15)
        keep = want > 0.0
        np.testing.assert_allclose(cf.log_evaluate(t[keep]), np.log(want[keep]), rtol=1e-14)

    @pytest.mark.parametrize("xs, t", [
        ([1.0, -1.0, 0.0, 2.0], [0.5, 2.5, 1.0, 3.0]),
        ([1.0, 2.0], [1.0, math.pi, 4.0]),
        ([1.0, -1.0], [[1.0, 3.0], [0.5, 2.0]]),
    ], ids=["first-negative", "exact-zero", "two-dimensional"])
    def test_positivity_error_names_the_first_point(self, xs, t):
        # the first t, in flat argument order, where mean(cos(t x)) <= 0
        t = np.array(t)
        vals = np.mean(np.cos(t[..., None] * np.array(xs)), axis=-1).reshape(-1)
        first = int(np.flatnonzero(vals <= 0.0)[0])
        with pytest.raises(PositivityError) as err:
            from_samples(xs).log_evaluate(t)
        assert err.value.t == t.flat[first]
        assert np.sign(err.value.value) == np.sign(vals[first])
        assert err.value.value == pytest.approx(vals[first], abs=1e-15)

    def test_memory_is_bounded(self):
        # row blocks of the kernel: a points x samples matrix would be 655 MB
        xs = np.random.default_rng(2).standard_normal(20000)
        t = np.linspace(0.0, 10.0, 4096)
        tracemalloc.start()
        try:
            values = from_samples(xs).evaluate(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == t.shape
        assert peak < 8e6


class TestConvolve:
    def test_identity_element(self):
        cf = SymmetrizedGammaCF(1.0)
        assert sup_diff(convolve(cf, limit_gaussian(0.0)), cf) < 1e-15

    def test_gaussian_variances_add(self):
        got = convolve(GaussianCF(1.0), GaussianCF(2.0))
        assert sup_diff(got, GaussianCF(3.0)) < 1e-12

    def test_mixed_closed_form(self):
        got = convolve(GaussianCF(1.4), CompoundPoissonCF(3.0, 1.0)).evaluate(2.0)
        expect = math.exp(-2.8 + 3.0 * (math.cos(2.0) - 1.0))
        assert got == pytest.approx(expect, rel=1e-14)

    def test_single_argument_passthrough(self):
        cf = GaussianCF(1.0)
        assert convolve(cf) is cf

    def test_rejects_non_cf(self):
        with pytest.raises(InputError):
            convolve(GaussianCF(1.0), 3.0)

    def test_rejects_zero_factors(self):
        with pytest.raises(InputError, match="product of zero factors"):
            ProductCF(())


class TestScaleArgument:
    def test_closed_form(self):
        cf = scale_argument(SymmetrizedGammaCF(1.0), 2.0)
        ts = np.linspace(-5.0, 5.0, 41)
        np.testing.assert_allclose(
            cf.evaluate(ts), SymmetrizedGammaCF(1.0).evaluate(2.0 * ts), rtol=1e-14
        )

    def test_unit_factor_gives_the_law_back(self):
        law = StableCF(1.5, 1.0)
        assert scale_argument(law, 1.0) is law

    def test_gaussian_stays_gaussian_while_its_variance_is_finite(self):
        # standardizing a gaussian gives the unit gaussian bit for bit here
        for v in (1e300, 1e12, 1e-300):
            assert scale_argument(GaussianCF(v), 1.0 / math.sqrt(v)) == GaussianCF(1.0)
        wide = scale_argument(GaussianCF(1e300), 1e10)
        assert isinstance(wide, ScaledCF) and wide.factor == 1e10
        # nor while it underflows: 2e-400 would read as the point mass at 0
        assert scale_argument(GaussianCF(2.0), 1e-200) == ScaledCF(GaussianCF(2.0), 1e-200)
        assert scale_argument(GaussianCF(0.0), 1e-200) == GaussianCF(0.0)
        for factor in (0.0, -1.0, math.nan):
            with pytest.raises(InputError):
                scale_argument(GaussianCF(1.0), factor)

    def test_scaled_law_takes_one_factor(self):
        # the variance 2e-300 holds, the fourth cumulant 12e-600 does not:
        # nested, the round trip read (2.0, nan)
        law = SymmetrizedGammaCF(1.0)
        assert scale_argument(scale_argument(law, 1e-150), 1e150).cumulants() == (2.0, 12.0)
        assert scale_argument(scale_argument(law, 1e-150), 2e150).cumulants() == (8.0, 192.0)
        assert scale_argument(scale_argument(law, 2), 3) == ScaledCF(law, 6.0)
        # past the normal range the factors stay apart
        tiny = scale_argument(scale_argument(law, 1e-200), 1e-200)
        assert tiny == ScaledCF(ScaledCF(law, 1e-200), 1e-200)

    def test_stable_law_takes_the_factor_into_its_scale(self):
        assert scale_argument(StableCF(1.5, 2.0), 3.0) == StableCF(1.5, 6.0)
        assert scale_argument(StableCF(0.7, 1e-150), 1e150) == StableCF(0.7, 1e-150 * 1e150)
        # past the normal range the factor stays apart
        for c in (1e-300, 1e300):
            assert scale_argument(StableCF(1.5, c), c) == ScaledCF(StableCF(1.5, c), c)


FAMILY_STRATEGY = st.one_of(
    st.floats(0.01, 10.0).map(GaussianCF),
    st.floats(0.05, 8.0).map(SymmetrizedGammaCF),
    st.tuples(st.floats(0.2, 2.0), st.floats(0.1, 3.0)).map(lambda p: StableCF(*p)),
    st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 3.0)).map(
        lambda p: CompoundPoissonCF(*p)
    ),
)


class TestInvariants:
    # |t| kept small enough that exp of the exponent stays above the
    # float64 underflow threshold; beyond that the log path is exact
    @given(cf=FAMILY_STRATEGY, t=st.floats(-8.0, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_positive(self, cf, t):
        v = cf.evaluate(t)
        assert 0.0 < v <= 1.0

    def test_log_path_survives_underflow(self):
        cf = GaussianCF(2.0)
        assert cf.evaluate(40.0) == 0.0  # exp(-1600) underflows
        assert cf.log_evaluate(40.0) == pytest.approx(-1600.0)

    @given(cf=FAMILY_STRATEGY, t=st.floats(0.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_even(self, cf, t):
        assert cf.evaluate(t) == cf.evaluate(-t)

    @given(cf=FAMILY_STRATEGY)
    @settings(max_examples=30, deadline=None)
    def test_value_one_at_zero(self, cf):
        assert cf.evaluate(0.0) == pytest.approx(1.0, abs=1e-12)

    @given(cf=FAMILY_STRATEGY, m=st.integers(1, 60), t=st.floats(0.01, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_rescales_invert(self, cf, m, t):
        back = sum_rescale(root_rescale(cf, m), m)
        assert back.evaluate(t) == pytest.approx(cf.evaluate(t), rel=1e-11, abs=1e-13)


class TestCumulants:
    def test_gaussian(self):
        k2, k4 = GaussianCF(2.0).cumulants()
        assert (k2, k4) == (2.0, 0.0)

    def test_product_adds(self):
        cf = convolve(SymmetrizedGammaCF(1.0), CompoundPoissonCF(2.0, 1.0))
        k2, k4 = cf.cumulants()
        assert k2 == pytest.approx(2.0 + 2.0)
        assert k4 == pytest.approx(12.0 + 2.0)

    def test_canonical_atom_matches_compound_poisson(self):
        got = compound_poisson_canonical(3.0, 0.7).cumulants()
        expect = CompoundPoissonCF(3.0, 0.7).cumulants()
        np.testing.assert_allclose(got, expect, rtol=1e-14)

    def test_canonical_density_matches_its_exponent(self):
        # log f(t) = -kappa2 t^2 / 2 + kappa4 t^4 / 24 + O(t^6): read both
        # cumulants off the exponent at small t
        grid = np.linspace(0.5, 2.0, 64)
        measure = DiscretizedMeasure((), (), grid, np.linspace(0.1, 0.3, 64))
        cf = CanonicalCF(0.25, measure)
        k2, k4 = cf.cumulants()

        def quadratic(t):
            return -2.0 * float(cf.log_evaluate(t)) / t**2

        assert k2 == pytest.approx(quadratic(1e-3), rel=1e-6)
        assert k4 == pytest.approx(12.0 * (k2 - quadratic(1e-2)) / 1e-4, rel=1e-4)

    def test_stable_alpha_two_is_gaussian(self):
        assert StableCF(2.0, 0.5).cumulants() == GaussianCF(0.5).cumulants() == (0.5, 0.0)

    def test_root_rescale_scales_kappa4(self):
        k2, k4 = root_rescale(SymmetrizedGammaCF(1.0), 5).cumulants()
        assert k2 == pytest.approx(2.0)
        assert k4 == pytest.approx(60.0)
