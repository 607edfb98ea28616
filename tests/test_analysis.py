import math
import re
import warnings

import numpy as np
import pytest

from iddlab import (
    CompoundPoissonCF,
    GaussianCF,
    InputError,
    MomentError,
    StableCF,
    SymmetrizedGammaCF,
    convolve,
    estimate_gaussian_coefficient,
    from_samples,
    has_gaussian_component,
    kurtosis_scaling_check,
    limit_deviation,
    limit_gaussian,
    moments,
    remainder_profile,
    root_rescale,
)
from iddlab.cf_core import scale_argument

# finite-fourth-moment fixtures used throughout
CATALOG = [
    GaussianCF(1.0),
    GaussianCF(2.0),
    SymmetrizedGammaCF(0.5),
    SymmetrizedGammaCF(1.0),
    SymmetrizedGammaCF(2.0),
    CompoundPoissonCF(0.5, 1.0),
    CompoundPoissonCF(2.0, 1.0),
]


class TestEstimate:
    def test_gaussian_exact_at_every_point(self):
        est = estimate_gaussian_coefficient(GaussianCF(4.0))
        assert all(v == pytest.approx(2.0, rel=1e-13) for v in est.values)
        assert est.a_hat == pytest.approx(2.0, rel=1e-13)
        assert est.error_bound < 1e-12
        assert est.component_variance == pytest.approx(4.0, rel=1e-13)

    def test_gaussian_plus_jumps(self):
        cf = convolve(GaussianCF(1.4), CompoundPoissonCF(3.0, 1.0))
        est = estimate_gaussian_coefficient(cf, (10.0, 100.0, 1000.0))
        # remainder is at most 2*rate/t^2 = 6e-6 at t = 1000
        assert est.a_hat == pytest.approx(0.7, abs=6e-6)

    def test_cauchy_no_moments_needed(self):
        est = estimate_gaussian_coefficient(StableCF(1.0, 1.0), (10.0, 100.0, 1000.0))
        assert est.a_hat == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize(
        "schedule",
        [
            (1.0, 2.0),  # too few points
            (1.0, 5.0, 3.0),  # not increasing
            (1.0, 2.0, 50.0),  # under two decades
            (-1.0, 1.0, 200.0),  # nonpositive entry
            (1e200, 1e201, 1e205),  # t^2 overflows
        ],
    )
    def test_schedule_validation(self, schedule):
        with pytest.raises(InputError):
            estimate_gaussian_coefficient(GaussianCF(1.0), schedule)


class TestDecision:
    def test_symgamma_no(self):
        assert not has_gaussian_component(SymmetrizedGammaCF(1.0), 1e-4).has_component

    def test_small_gaussian_yes(self):
        decision = has_gaussian_component(GaussianCF(0.02), 1e-4)
        assert decision.has_component
        assert decision.estimate.a_hat == pytest.approx(0.01, rel=1e-12)

    def test_large_rate_jumps_still_no(self):
        # variance 100 but no gaussian part
        assert not has_gaussian_component(CompoundPoissonCF(100.0, 1.0), 1e-4).has_component

    def test_cauchy_no(self):
        assert not has_gaussian_component(StableCF(1.0, 1.0), 1e-4).has_component

    def test_overflowed_estimate_is_refused(self):
        # a t^2 overflows at the last two schedule points: a_hat = inf and
        # the bound inf - inf = nan, which supports no answer either way
        cf = GaussianCF(1e305)
        with np.errstate(over="ignore"):
            assert math.isnan(estimate_gaussian_coefficient(cf).error_bound)
            with pytest.raises(InputError, match="not finite"):
                has_gaussian_component(cf)
            with pytest.raises(InputError, match="not finite"):
                limit_deviation(cf, 3, 5.0)


class TestLimitDeviation:
    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_gaussian_converged_already(self, m):
        assert limit_deviation(GaussianCF(1.0), m, 10.0) < 1e-12

    @pytest.mark.parametrize(
        "m,expected",
        [(100, 1.0 - 2501.0 ** (-0.01)), (10000, 1.0 - 250001.0 ** (-0.0001))],
    )
    def test_symgamma_closed_form(self, m, expected):
        got = limit_deviation(SymmetrizedGammaCF(1.0), m, 5.0)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_decreasing_in_m(self):
        devs = [limit_deviation(SymmetrizedGammaCF(1.0), m, 5.0) for m in (10, 100, 1000)]
        assert devs[0] > devs[1] > devs[2]

    def test_known_coefficient_bypasses_estimation(self):
        cf = GaussianCF(2.0)
        assert limit_deviation(cf, 3, 5.0, a=1.0) < 1e-12

    def test_t_validation(self):
        with pytest.raises(InputError):
            limit_deviation(GaussianCF(1.0), 2, -1.0)

    @pytest.mark.parametrize("grid_size", [2.7, math.nan, math.inf, True, "64", None, 1])
    def test_grid_size_validation(self, grid_size):
        with pytest.raises(InputError, match="grid_size"):
            limit_deviation(GaussianCF(1.0), 2, 5.0, grid_size=grid_size)


class TestMoments:
    @pytest.mark.parametrize(
        "cf,mu2,mu4,kappa",
        [
            (GaussianCF(2.0), 2.0, 12.0, 0.0),
            (SymmetrizedGammaCF(1.0), 2.0, 24.0, 3.0),
            (SymmetrizedGammaCF(2.0), 4.0, 72.0, 1.5),
            (CompoundPoissonCF(2.0, 1.0), 2.0, 14.0, 0.5),
        ],
    )
    def test_closed_form(self, cf, mu2, mu4, kappa):
        ms = moments(cf)
        assert ms.mu2 == pytest.approx(mu2, rel=1e-12)
        assert ms.mu4 == pytest.approx(mu4, rel=1e-12)
        assert ms.kappa == pytest.approx(kappa, rel=1e-12)
        assert ms.method == "closed-form"

    def test_heavy_tail_rejected(self):
        with pytest.raises(MomentError):
            moments(StableCF(1.5, 1.0))
        with pytest.raises(MomentError):
            moments(StableCF(1.5, 1.0), "finite-difference")

    @pytest.mark.parametrize("variance", [1e-300, 1e300])
    def test_gaussian_kurtosis_outside_the_normal_range_of_mu2_squared(self, variance):
        ms = moments(GaussianCF(variance))
        assert (ms.mu2, ms.kappa) == (variance, 0.0)

    def test_tiny_shape_kurtosis(self):
        # kappa = 3 / g, representable at g = 1e-300 and not at 1e-310
        assert moments(SymmetrizedGammaCF(1e-300)).kappa == pytest.approx(3e300, rel=1e-12)
        with pytest.raises(MomentError):
            moments(SymmetrizedGammaCF(1e-310))

    @pytest.mark.parametrize("cf", CATALOG)
    def test_finite_difference_matches_closed_form(self, cf):
        exact = moments(cf)
        fd = moments(cf, "finite-difference")
        assert fd.method == "finite-difference"
        assert fd.mu2 == pytest.approx(exact.mu2, rel=1e-3)
        assert fd.mu4 == pytest.approx(exact.mu4, rel=1e-3)

    @pytest.mark.parametrize("variance", [1e6, 1e10, 1e100, 1e-20, 1e-30, 1e-100])
    def test_finite_difference_has_no_unit(self, variance):
        # the step follows the law's scale, so a wide gaussian is read as
        # closely as the unit one, and so is one so narrow that f(0.1)
        # rounds to 1
        fd = moments(GaussianCF(variance), "finite-difference")
        assert fd.mu2 == pytest.approx(variance, rel=1e-6, abs=0.0)
        assert fd.kappa == pytest.approx(0.0, abs=1e-6)

    def test_finite_difference_step_whose_fourth_power_underflows_refused(self):
        with pytest.raises(MomentError, match="too small"):
            moments(GaussianCF(1e300), "finite-difference")

    def test_finite_difference_step_whose_fourth_power_overflows_refused(self):
        with pytest.raises(MomentError, match="too large"):
            moments(GaussianCF(1e-300), "finite-difference")

    @pytest.mark.parametrize("variance", [1e-160, 2e-160, 1e-300, 3e300])
    def test_finite_difference_refusal_names_the_variance(self, variance):
        # 1 - f(h0) rounds to a multiple of 2^-53 at a narrow law; the
        # exponent at h0 does not
        with pytest.raises(MomentError, match=re.escape(f"variance about {variance:.3g}") + "$"):
            moments(GaussianCF(variance), "finite-difference")

    def test_finite_difference_of_a_law_wider_than_any_float_variance_refused(self):
        # f vanishes at every positive float step, so the coarse search
        # ends at h0 = 0 and reads an infinite rough variance; the law's
        # own exponent overflows on the way there, which is not the subject
        cf = scale_argument(GaussianCF(1e300), 1e300)
        with np.errstate(over="ignore"), pytest.raises(MomentError, match="too small"):
            moments(cf, "finite-difference")

    def test_finite_difference_of_the_point_mass(self):
        # f = 1 wherever the coarse step's square is finite: every difference reads 0
        fd = moments(GaussianCF(0.0), "finite-difference")
        assert repr((fd.mu2, fd.mu4, fd.kappa)) == "(-0.0, 0.0, 0.0)"

    def test_finite_difference_for_samples(self):
        rng = np.random.default_rng(42)
        xs = rng.normal(0.0, 1.0, 50000)
        fd = moments(from_samples(xs), "finite-difference")
        assert fd.mu2 == pytest.approx(float(np.mean(xs**2)), rel=1e-3)

    @pytest.mark.parametrize("cf", CATALOG)
    def test_cauchy_schwarz(self, cf):
        ms = moments(cf)
        assert ms.mu4 >= ms.mu2**2 * (1.0 - 1e-12)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            moments(GaussianCF(1.0), "quadrature")


class TestKurtosisScaling:
    def test_gaussian_zero_over_zero(self):
        check = kurtosis_scaling_check(GaussianCF(1.0), 7)
        assert check.kappa_m == 0.0 and check.expected == 0.0
        assert check.relative_error == 0.0

    def test_symgamma_linear_growth(self):
        check = kurtosis_scaling_check(SymmetrizedGammaCF(1.0), 5)
        assert check.kappa_m == pytest.approx(15.0, rel=1e-12)
        assert check.relative_error < 1e-12

    def test_compound_poisson(self):
        check = kurtosis_scaling_check(CompoundPoissonCF(2.0, 1.0), 3)
        assert check.kappa_m == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("cf", CATALOG)
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_closed_form_exact(self, cf, m):
        assert kurtosis_scaling_check(cf, m).relative_error < 1e-9

    @pytest.mark.parametrize(
        "cf", [SymmetrizedGammaCF(1.0), CompoundPoissonCF(2.0, 1.0)]
    )
    def test_finite_difference_close(self, cf):
        check = kurtosis_scaling_check(cf, 5, "finite-difference")
        assert check.relative_error < 1e-3


class TestCorollaries:
    @pytest.mark.parametrize("cf", CATALOG)
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_variance_invariant_under_root_rescale(self, cf, m):
        base = moments(cf).mu2
        assert moments(root_rescale(cf, m)).mu2 == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize(
        "cf",
        [
            SymmetrizedGammaCF(1.0),
            CompoundPoissonCF(2.0, 1.0),
            CompoundPoissonCF(100.0, 1.0),
        ],
    )
    def test_variance_gap_for_non_gaussian(self, cf):
        # decision "no" means the law carries all its variance in the
        # non-gaussian part; the gap to 2*a is the full variance
        decision = has_gaussian_component(cf, 1e-4)
        assert not decision.has_component
        assert moments(cf).mu2 > 0.0

    def test_symgamma_gap_is_full_variance(self):
        cf = SymmetrizedGammaCF(1.0)
        assert not has_gaussian_component(cf, 1e-4).has_component
        assert moments(cf).mu2 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("v", [0.5, 1.0, 4.0])
    def test_matched_variance_means_gaussian(self, v):
        cf = GaussianCF(v)
        est = estimate_gaussian_coefficient(cf)
        assert est.component_variance == pytest.approx(moments(cf).mu2, rel=1e-12)
        grid = np.linspace(-10.0, 10.0, 101)
        dev = np.max(np.abs(cf.evaluate(grid) - limit_gaussian(est.a_hat).evaluate(grid)))
        assert dev < 1e-9

    @pytest.mark.parametrize("cf", CATALOG)
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_fourth_cumulant_scales_linearly(self, cf, m):
        base = moments(cf)
        resc = moments(root_rescale(cf, m))
        k4_base = base.mu4 - 3.0 * base.mu2**2
        k4_resc = resc.mu4 - 3.0 * resc.mu2**2
        if k4_base == 0.0:
            assert abs(k4_resc) < 1e-12
        else:
            assert k4_resc == pytest.approx(m * k4_base, rel=1e-9)


class TestRemainderProfile:
    def test_gaussian_identically_zero(self):
        grid = np.geomspace(0.1, 100.0, 50)
        prof = remainder_profile(GaussianCF(3.0), 1.5, grid)
        assert max(abs(r) for _, r in prof) < 1e-12

    def test_symgamma_closed_form(self):
        prof = dict(remainder_profile(SymmetrizedGammaCF(1.0), 0.0, [10.0]))
        assert prof[10.0] == pytest.approx(math.log(101.0) / 100.0, rel=1e-12)

    def test_compound_poisson_non_monotone(self):
        two_pi = 2.0 * math.pi
        prof = dict(remainder_profile(CompoundPoissonCF(1.0, 1.0), 0.0, [3.0, two_pi]))
        assert prof[two_pi] == pytest.approx(0.0, abs=1e-12)
        assert prof[3.0] > 0.1  # decay towards zero is not monotone

    @pytest.mark.parametrize("grid, match", [
        ([], "t_grid is empty"),
        ([1.0, math.nan], "finite and nonzero"),
        ([1.0, 1e300], r"t\^2 finite"),
        ([1e-170, 1.0], r"t\^2 finite and nonzero"),
    ], ids=["empty", "non-finite", "square-overflows", "square-underflows"])
    def test_grid_without_a_finite_nonzero_square_refused(self, grid, match):
        # refused before any exponent is read: no NaN profile, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                remainder_profile(GaussianCF(1.0), 0.5, grid)

    @pytest.mark.parametrize("a_hat", [math.nan, math.inf])
    def test_non_finite_coefficient_refused(self, a_hat):
        with pytest.raises(InputError, match="a_hat"):
            remainder_profile(SymmetrizedGammaCF(1.0), a_hat, [1.0])
