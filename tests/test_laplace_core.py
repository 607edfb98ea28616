import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iddlab import (
    CanonicalLaplace,
    DiscretizedMeasure,
    DriftTransform,
    GammaSubordinator,
    InputError,
    PoissonSubordinator,
    RootRescaledLaplace,
    StableSubordinator,
    convolve_L,
    estimate_drift,
    limit_deviation_L,
    root_rescale_L,
    support_touches_zero,
)


class TestValues:
    def test_gamma_closed_form(self):
        assert GammaSubordinator(1.0).evaluate(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_drift_closed_form(self):
        assert DriftTransform(2.0).evaluate(3.0) == pytest.approx(math.exp(-6.0), rel=1e-14)

    def test_poisson_large_s(self):
        got = PoissonSubordinator(1.0).evaluate(10.0)
        assert got == pytest.approx(math.exp(math.exp(-10.0) - 1.0), rel=1e-14)

    def test_stable_closed_form(self):
        got = StableSubordinator(0.5, 1.0).evaluate(4.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_nonpositive_s_rejected(self):
        with pytest.raises(InputError):
            GammaSubordinator(1.0).evaluate(0.0)
        with pytest.raises(InputError):
            GammaSubordinator(1.0).evaluate(np.array([1.0, -2.0]))
        with pytest.raises(InputError, match="s must be finite"):
            GammaSubordinator(1.0).evaluate(np.inf)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GammaSubordinator(0.0),
            lambda: PoissonSubordinator(-1.0),
            lambda: StableSubordinator(1.0, 1.0),  # alpha must be below 1
            lambda: StableSubordinator(0.5, 0.0),
            lambda: DriftTransform(-0.5),
            lambda: GammaSubordinator(math.nan),
            lambda: GammaSubordinator(math.inf),
            lambda: PoissonSubordinator(math.nan),
            lambda: PoissonSubordinator(math.inf),
            lambda: StableSubordinator(math.nan, 1.0),
            lambda: StableSubordinator(math.inf, 1.0),
            lambda: StableSubordinator(0.5, math.nan),
            lambda: StableSubordinator(0.5, math.inf),
            lambda: DriftTransform(math.nan),
            lambda: DriftTransform(math.inf),
            lambda: CanonicalLaplace(math.nan, DiscretizedMeasure.from_atoms([(1.0, 0.5)])),
            lambda: CanonicalLaplace(math.inf, DiscretizedMeasure.from_atoms([(1.0, 0.5)])),
            lambda: CanonicalLaplace(0.5, [(1.0, 0.5)]),
            lambda: RootRescaledLaplace(GammaSubordinator(1.0), 0),
            lambda: RootRescaledLaplace(GammaSubordinator(1.0), 2.5),
            lambda: RootRescaledLaplace(GammaSubordinator(1.0), math.nan),
            lambda: RootRescaledLaplace(GammaSubordinator(1.0), math.inf),
            lambda: RootRescaledLaplace(GammaSubordinator(1.0), "3"),
            lambda: root_rescale_L(GammaSubordinator(1.0), 10**400),
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(InputError):
            build()

    def test_single_argument_passthrough(self):
        lt = GammaSubordinator(1.0)
        assert convolve_L(lt) is lt

    def test_canonical_matches_poisson(self):
        # one atom at a=1 with mass rate*(1-e^-1) reproduces the Poisson
        # exponent rate*(1-e^-s) under the normalized kernel
        rate = 2.0
        measure = DiscretizedMeasure.from_atoms([(1.0, rate * -math.expm1(-1.0))])
        canon = CanonicalLaplace(0.0, measure)
        direct = PoissonSubordinator(rate)
        ss = np.geomspace(1e-3, 100.0, 200)
        assert np.max(np.abs(canon.evaluate(ss) - direct.evaluate(ss))) < 1e-12

    def test_canonical_pure_drift(self):
        canon = CanonicalLaplace(1.5, DiscretizedMeasure())
        ss = np.geomspace(1e-2, 10.0, 50)
        np.testing.assert_allclose(canon.evaluate(ss), np.exp(-1.5 * ss), rtol=1e-14)


class TestRootRescale:
    def test_drift_fixed_point(self):
        lt = DriftTransform(2.0)
        assert root_rescale_L(lt, 7) is lt

    def test_gamma_closed_form(self):
        got = root_rescale_L(GammaSubordinator(1.0), 4).evaluate(1.0)
        assert got == pytest.approx(5.0 ** (-0.25), rel=1e-14)

    def test_stable_closed_form(self):
        # L_m(s) = exp(-m^(alpha-1) (c s)^alpha)
        got = root_rescale_L(StableSubordinator(0.5, 1.0), 4).evaluate(1.0)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-14)

    @pytest.mark.parametrize("m,k", [(2, 3), (4, 4)])
    def test_semigroup(self, m, k):
        lt = GammaSubordinator(1.5)
        ss = np.geomspace(1e-3, 100.0, 200)
        twice = root_rescale_L(root_rescale_L(lt, m), k).evaluate(ss)
        once = root_rescale_L(lt, m * k).evaluate(ss)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_m_validation(self):
        with pytest.raises(InputError):
            root_rescale_L(GammaSubordinator(1.0), 0)


LT_STRATEGY = st.one_of(
    st.floats(0.1, 5.0).map(GammaSubordinator),
    st.floats(0.1, 10.0).map(PoissonSubordinator),
    st.tuples(st.floats(0.1, 0.9), st.floats(0.2, 3.0)).map(
        lambda p: StableSubordinator(*p)
    ),
    st.floats(0.0, 4.0).map(DriftTransform),
)


class TestMonotoneConvex:
    @given(lt=LT_STRATEGY, m=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_rescale_still_completely_monotone_necessary_conditions(self, lt, m):
        ss = np.geomspace(1e-3, 50.0, 400)
        vals = root_rescale_L(lt, m).evaluate(ss)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing
        # convexity on an uneven grid: chord slopes must not decrease
        slopes = np.diff(vals) / np.diff(ss)
        assert np.all(np.diff(slopes) >= -1e-9)

    @given(lt=LT_STRATEGY)
    @settings(max_examples=40, deadline=None)
    def test_products_stay_bounded(self, lt):
        ss = np.geomspace(1e-2, 20.0, 100)
        vals = convolve_L(lt, GammaSubordinator(0.5)).evaluate(ss)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)


class TestDriftEstimation:
    def test_pure_drift_exact_everywhere(self):
        est = estimate_drift(DriftTransform(2.0))
        assert all(v == pytest.approx(2.0, rel=1e-13) for v in est.values)
        assert est.error_bound < 1e-12

    def test_gamma_vanishing_drift(self):
        est = estimate_drift(GammaSubordinator(1.0))
        expect = math.log(1.0 + 1e4) / 1e4
        assert est.sigma_hat == pytest.approx(expect, rel=1e-10)
        # the successive-difference bound dominates the estimate itself
        assert est.error_bound > est.sigma_hat

    def test_drift_plus_poisson(self):
        # remainder is 2(1 - e^-s)/s, exactly 2e-3 at the last point
        lt = convolve_L(DriftTransform(0.5), PoissonSubordinator(2.0))
        est = estimate_drift(lt, (10.0, 100.0, 1000.0))
        assert est.sigma_hat == pytest.approx(0.5, abs=2.01e-3)

    def test_drift_invariant_under_rescale(self):
        lt = GammaSubordinator(1.0)
        base = estimate_drift(lt)
        resc = estimate_drift(root_rescale_L(lt, 5))
        gap = abs(base.sigma_hat - resc.sigma_hat)
        assert gap <= base.error_bound + resc.error_bound + 1e-12

    def test_schedule_validation(self):
        with pytest.raises(InputError):
            estimate_drift(GammaSubordinator(1.0), (1.0, 2.0, 3.0))


class TestSupport:
    @pytest.mark.parametrize(
        "lt,expected",
        [
            (GammaSubordinator(1.0), True),
            (GammaSubordinator(2.0), True),
            (PoissonSubordinator(1.0), True),
            (DriftTransform(0.0), True),
            (DriftTransform(2.0), False),
            (convolve_L(DriftTransform(1.0), GammaSubordinator(1.0)), False),
            (convolve_L(DriftTransform(0.5), PoissonSubordinator(2.0)), False),
        ],
    )
    def test_decisions(self, lt, expected):
        assert support_touches_zero(lt).touches_zero is expected

    def test_slow_exponent_needs_longer_schedule(self):
        # -log L / s = s^(alpha-1) vanishes so slowly that at s = 1e4 the
        # estimate (0.01) still dwarfs tol + error_bound and the call
        # answers no; extending the schedule recovers the right answer
        lt = StableSubordinator(0.5, 1.0)
        assert not support_touches_zero(lt).touches_zero
        assert support_touches_zero(lt, s_schedule=(1e4, 1e6, 1e8)).touches_zero

    def test_no_reports_the_gap(self):
        decision = support_touches_zero(convolve_L(DriftTransform(1.0), GammaSubordinator(1.0)))
        assert decision.sigma_hat == pytest.approx(1.0, abs=1e-2)

    def test_tol_validation(self):
        with pytest.raises(InputError):
            support_touches_zero(DriftTransform(1.0), tol=-1.0)

    def test_overflowed_estimate_is_refused(self):
        # sigma s overflows at the last two schedule points: sigma_hat = inf
        # and the bound inf - inf = nan, which supports no answer either way
        lt = DriftTransform(1e305)
        with np.errstate(over="ignore"):
            assert math.isnan(estimate_drift(lt).error_bound)
            with pytest.raises(InputError, match="not finite"):
                support_touches_zero(lt)
            with pytest.raises(InputError, match="not finite"):
                limit_deviation_L(lt, 3, 10.0)


class TestLimitDeviation:
    @pytest.mark.parametrize("m", [2, 50])
    def test_drift_already_degenerate(self, m):
        assert limit_deviation_L(DriftTransform(2.0), m, 10.0) < 1e-12

    def test_gamma_closed_form(self):
        got = limit_deviation_L(GammaSubordinator(1.0), 100, 10.0)
        assert got == pytest.approx(1.0 - 1001.0 ** (-0.01), abs=1e-9)

    def test_drifted_gamma_against_known_drift(self):
        lt = convolve_L(DriftTransform(1.0), GammaSubordinator(1.0))
        m, S, n = 10000, 10.0, 1024
        got = limit_deviation_L(lt, m, S, n, sigma=1.0)
        ss = np.geomspace(1e-3, S, n)
        oracle = np.max(np.exp(-ss) * (1.0 - (1.0 + m * ss) ** (-1.0 / m)))
        assert got == pytest.approx(float(oracle), abs=1e-12)

    @pytest.mark.parametrize(
        "lt",
        [GammaSubordinator(1.0), PoissonSubordinator(1.0), StableSubordinator(0.5, 1.0)],
    )
    def test_zero_drift_deviation_decreasing(self, lt):
        devs = [limit_deviation_L(lt, m, 10.0) for m in (10, 100, 1000)]
        assert devs[0] > devs[1] > devs[2]

    def test_input_validation(self):
        with pytest.raises(InputError):
            limit_deviation_L(GammaSubordinator(1.0), 2, -1.0)
        with pytest.raises(InputError):
            limit_deviation_L(GammaSubordinator(1.0), 2, 10.0, sigma=-0.5)
