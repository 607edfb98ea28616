import math
import warnings

import numpy as np
import pytest

from iddlab import (
    CompoundPoissonCF,
    ConfigError,
    GaussianCF,
    LambdaConfig,
    SymmetrizedGammaCF,
    backward_bound,
    clt_bound_check,
    lambda_r,
    root_rescale,
    scale_argument,
)

# independent dense-grid values (10^6 points, generated by
# tools/make_oracles.py); the default 4096-point grid reproduces them
# to much better than the 1e-4 asserted here
L3_SYMGAMMA1_VS_GAUSS2 = 0.17415790956942745
L3_SUM_M4 = 0.050359112497820296
L3_ROOT_M4 = 0.49905494626277519
L3_ROOT_M16 = 1.1797666376287312


class TestConfig:
    @pytest.mark.parametrize("r", [2.0, 1.5, -3.0, math.inf])
    def test_r_must_exceed_two(self, r):
        with pytest.raises(ConfigError):
            LambdaConfig(r=r)

    def test_bounds_ordering(self):
        with pytest.raises(ConfigError):
            LambdaConfig(r=3.0, t_min=2.0, t_max=1.0)
        with pytest.raises(ConfigError):
            LambdaConfig(r=3.0, t_min=0.0)

    def test_grid_size_floor(self):
        with pytest.raises(ConfigError):
            LambdaConfig(r=3.0, grid_size=8)

    def test_policy_names(self):
        with pytest.raises(ConfigError):
            LambdaConfig(r=3.0, small_t_policy="clamp")


class TestLambdaR:
    def test_identical_arguments(self):
        cfg = LambdaConfig(r=3.0)
        assert lambda_r(SymmetrizedGammaCF(1.0), SymmetrizedGammaCF(1.0), cfg) == 0.0

    def test_identical_arguments_that_underflow(self):
        # the exponent overflows to -inf (f = 0) on most of the grid; two
        # CFs that are both 0 there are at distance 0, not NaN
        cfg = LambdaConfig(r=3.0)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            assert lambda_r(GaussianCF(1e307), GaussianCF(1e307), cfg) == 0.0

    def test_symmetry(self):
        cfg = LambdaConfig(r=3.0)
        a, b = SymmetrizedGammaCF(1.0), GaussianCF(2.0)
        assert lambda_r(a, b, cfg) == lambda_r(b, a, cfg)

    def test_pinned_value(self):
        cfg = LambdaConfig(r=3.0)
        got = lambda_r(SymmetrizedGammaCF(1.0), GaussianCF(2.0), cfg)
        assert got == pytest.approx(L3_SYMGAMMA1_VS_GAUSS2, abs=1e-4)

    def test_mismatched_variance_diverges(self):
        # |e^(-t^2/2) - e^(-t^2)| / t^3 ~ t^(-1) near zero
        cfg = LambdaConfig(r=3.0)
        assert math.isinf(lambda_r(GaussianCF(1.0), GaussianCF(2.0), cfg))

    def test_exclude_policy_reports_grid_sup(self):
        # same divergent pair: without the downward extension the finite
        # grid supremum is reported as is
        cfg = LambdaConfig(r=3.0, small_t_policy="exclude")
        got = lambda_r(GaussianCF(1.0), GaussianCF(2.0), cfg)
        assert math.isfinite(got)
        # ratio at t_min dominates: about 0.5 / t_min
        assert got == pytest.approx(0.5 / 1e-3, rel=1e-2)

    def test_scale_homogeneity(self):
        # replacing f(t) by f(ct) multiplies lambda_r by c^r
        c, r = 2.0, 3.0
        base_cfg = LambdaConfig(r=r)
        scaled_cfg = LambdaConfig(r=r, t_min=base_cfg.t_min / c, t_max=base_cfg.t_max / c)
        a, b = SymmetrizedGammaCF(1.0), GaussianCF(2.0)
        lam = lambda_r(a, b, base_cfg)
        lam_scaled = lambda_r(
            scale_argument(a, c), scale_argument(b, c), scaled_cfg
        )
        assert lam_scaled == pytest.approx(c**r * lam, rel=1e-9)


class TestForwardBound:
    def test_gaussian_is_exact_zero(self):
        chk = clt_bound_check(GaussianCF(1.0), 5, 3.0)
        assert chk.lhs == 0.0 and chk.rhs == 0.0
        assert chk.holds and chk.applicable

    def test_pinned_values_m4_r3(self):
        chk = clt_bound_check(SymmetrizedGammaCF(1.0), 4, 3.0)
        assert chk.lhs == pytest.approx(L3_SUM_M4, abs=1e-4)
        assert chk.rhs == pytest.approx(0.5 * L3_SYMGAMMA1_VS_GAUSS2, abs=1e-4)
        assert chk.holds

    @pytest.mark.parametrize(
        "cf",
        [
            SymmetrizedGammaCF(0.5),
            SymmetrizedGammaCF(1.0),
            SymmetrizedGammaCF(2.0),
            CompoundPoissonCF(0.5, 1.0),
            CompoundPoissonCF(2.0, 1.0),
            GaussianCF(1.0),
        ],
    )
    @pytest.mark.parametrize("r", [2.5, 3.0])
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_holds_across_catalog(self, cf, r, m):
        assert clt_bound_check(cf, m, r).holds

    def test_rhs_strictly_decreasing_in_m(self):
        rhs = [clt_bound_check(SymmetrizedGammaCF(1.0), m, 3.0).rhs for m in (2, 4, 8)]
        assert rhs[0] > rhs[1] > rhs[2]

    def test_divergent_base_not_applicable(self):
        # r = 4.5: the matched-moment cancellation is only O(t^4), so
        # the ratio diverges at small t and the bound is vacuous
        chk = clt_bound_check(SymmetrizedGammaCF(1.0), 2, 4.5)
        assert not chk.applicable
        assert math.isinf(chk.rhs)
        assert chk.holds  # vacuously


class TestBackwardBound:
    def test_gaussian_is_exact_zero(self):
        chk = backward_bound(GaussianCF(1.0), 4, 3.0)
        assert chk.lhs == 0.0 and chk.lower == 0.0 and chk.holds

    @pytest.mark.parametrize(
        "m,pinned_lhs", [(4, L3_ROOT_M4), (16, L3_ROOT_M16)]
    )
    def test_pinned_values(self, m, pinned_lhs):
        chk = backward_bound(SymmetrizedGammaCF(1.0), m, 3.0)
        assert chk.lhs == pytest.approx(pinned_lhs, abs=1e-3)
        assert chk.lower == pytest.approx(
            math.sqrt(m) * L3_SYMGAMMA1_VS_GAUSS2, abs=1e-3
        )
        assert chk.holds

    def test_rearrangement_of_forward_bound(self):
        # the backward check on X(1) is the forward check on X(m),
        # read in the other direction, on the same grid
        cf = SymmetrizedGammaCF(1.0)
        m, r = 4, 3.0
        back = backward_bound(cf, m, r)
        fwd = clt_bound_check(root_rescale(cf, m), m, r)
        factor = float(m) ** (r / 2.0 - 1.0)
        assert back.lhs == pytest.approx(factor * fwd.rhs, rel=1e-12)
        assert back.lower == pytest.approx(factor * fwd.lhs, rel=1e-12)
        assert back.holds == fwd.holds
