import math

import numpy as np
import pytest

from iddlab import (
    CompoundPoissonCF,
    ConfigError,
    GaussianCF,
    InputError,
    MomentError,
    QuadratureError,
    QuadratureSpec,
    StableCF,
    SymmetrizedGammaCF,
    approx_compare,
    cdf_from_cf,
    fit_stable,
    kolmogorov_distance,
    limit_gaussian,
    root_rescale,
    sum_rescale,
)
from iddlab.inversion import _cdf_matrix

# dense-grid closed-form CDF suprema from tools/make_oracles.py
KS_LAPLACE_VS_GAUSS2 = 0.062021369217940658
KS_GAUSS1_VS_GAUSS121 = 0.0230448321373804


def normal_cdf(x, variance=1.0):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * variance)))


class TestQuadratureSpec:
    def test_node_floor(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(N=32)

    def test_tail_tolerance_range(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(eps_tail=0.0)
        with pytest.raises(ConfigError):
            QuadratureSpec(eps_tail=1.5)

    def test_truncation_positive(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(T=-1.0)


class TestCdfFromCf:
    def test_symmetry_point_exact(self):
        assert cdf_from_cf(GaussianCF(1.0), 0.0) == 0.5

    def test_gaussian_against_erf(self):
        xs = np.arange(-4.0, 4.5, 0.5)
        got = cdf_from_cf(GaussianCF(1.0), xs)
        expect = [normal_cdf(x) for x in xs]
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_cauchy_against_arctan(self):
        got = cdf_from_cf(StableCF(1.0, 1.0), 1.0)
        assert got == pytest.approx(0.75, abs=1e-6)

    def test_scalar_and_array_forms(self):
        assert isinstance(cdf_from_cf(GaussianCF(1.0), 1.0), float)
        out = cdf_from_cf(GaussianCF(1.0), np.array([0.0, 1.0]))
        assert out.shape == (2,)

    @pytest.mark.parametrize(
        "cf",
        [GaussianCF(1.0), SymmetrizedGammaCF(1.0), StableCF(1.0, 1.0)],
    )
    def test_nondecreasing(self, cf):
        xs = np.linspace(-8.0, 8.0, 161)
        vals = cdf_from_cf(cf, xs)
        assert np.all(np.diff(vals) >= -1e-8)

    @pytest.mark.parametrize(
        "cf",
        [GaussianCF(2.0), SymmetrizedGammaCF(1.0), StableCF(1.5, 1.0)],
    )
    def test_reflection_symmetry(self, cf):
        xs = np.linspace(0.1, 6.0, 30)
        left = cdf_from_cf(cf, -xs)
        right = cdf_from_cf(cf, xs)
        np.testing.assert_allclose(left + right, 1.0, atol=1e-8)

    def test_lattice_law_rejected(self):
        # the CF of a compound Poisson law oscillates without decaying,
        # so there is no usable truncation point
        with pytest.raises(QuadratureError):
            cdf_from_cf(CompoundPoissonCF(2.0, 1.0), 1.0)

    def test_marginally_decaying_cf_with_explicit_truncation(self):
        # (1 + t^2)^(-1/2) ~ 1/t decays too slowly for auto-truncation,
        # but the reflection identity cancels the truncation tail exactly
        cf = SymmetrizedGammaCF(0.5)
        quad = QuadratureSpec(T=1e4)
        xs = np.linspace(0.2, 4.0, 12)
        np.testing.assert_allclose(
            cdf_from_cf(cf, -xs, quad) + cdf_from_cf(cf, xs, quad), 1.0, atol=1e-8
        )

    def test_values_stay_probabilities(self):
        xs = np.linspace(-50.0, 50.0, 101)
        vals = cdf_from_cf(GaussianCF(0.25), xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_slowly_decaying_cf_rejected(self):
        # near-degenerate law: the CF never falls below eps_tail, so
        # automatic truncation has nothing to anchor on
        with pytest.raises(QuadratureError):
            cdf_from_cf(root_rescale(SymmetrizedGammaCF(1.0), 10**6), 1.0)

    def test_asymmetric_grid_with_repeated_abs_x(self):
        # only |x| <= 1 has both signs on the grid; 0 is on it
        xs = np.linspace(-1.0, 5.0, 37)
        got = cdf_from_cf(GaussianCF(1.0), xs)
        np.testing.assert_allclose(got, [normal_cdf(x) for x in xs], atol=1e-6)

    def test_grid_longer_than_one_kernel_chunk(self):
        xs = np.linspace(-4.0, 7.0, 1201)
        got = cdf_from_cf(GaussianCF(1.0), xs)
        np.testing.assert_allclose(got, [normal_cdf(x) for x in xs], atol=1e-6)

    def test_explicit_truncation_override(self):
        auto = cdf_from_cf(GaussianCF(1.0), 1.0)
        manual = cdf_from_cf(GaussianCF(1.0), 1.0, QuadratureSpec(T=12.0))
        assert manual == pytest.approx(auto, abs=1e-9)


class TestCdfMatrix:
    def test_batched_columns_match_single_law(self):
        # more laws than one coefficient block, at one explicit truncation
        laws = [GaussianCF(1.0), SymmetrizedGammaCF(1.0)] + [
            StableCF(a, c) for a in (1.0, 1.3, 1.6, 1.9) for c in np.geomspace(0.5, 2.0, 10)
        ]
        quad = QuadratureSpec(T=40.0, N=1024)
        xs = np.linspace(-6.0, 6.0, 41)
        F, T, nodes = _cdf_matrix(laws, xs, quad)
        assert F.shape == (xs.size, len(laws))
        assert (T, nodes) == (40.0, 1025)
        for j, cf in enumerate(laws):
            np.testing.assert_allclose(F[:, j], cdf_from_cf(cf, xs, quad), rtol=0, atol=1e-12)

    def test_shared_truncation_is_the_largest_automatic_one(self):
        quad = QuadratureSpec()
        slow = StableCF(1.0, 0.25)  # |f| = exp(-t / 4) reaches 1e-10 only past t = 92
        T_fast = _cdf_matrix([GaussianCF(1.0)], np.array([1.0]), quad)[1]
        T_slow = _cdf_matrix([slow], np.array([1.0]), quad)[1]
        assert T_fast < 92.0 < T_slow
        assert _cdf_matrix([GaussianCF(1.0), slow], np.array([1.0]), quad)[1] == T_slow


class TestKolmogorovDistance:
    def test_identical_cfs(self):
        assert kolmogorov_distance(GaussianCF(1.0), GaussianCF(1.0)) < 1e-9

    def test_laplace_vs_matched_gaussian(self):
        got = kolmogorov_distance(SymmetrizedGammaCF(1.0), GaussianCF(2.0))
        assert got == pytest.approx(KS_LAPLACE_VS_GAUSS2, abs=5e-5)

    def test_gaussian_pair(self):
        got = kolmogorov_distance(GaussianCF(1.0), GaussianCF(1.21))
        assert got == pytest.approx(KS_GAUSS1_VS_GAUSS121, abs=1e-5)

    def test_symmetric_in_arguments(self):
        a, b = SymmetrizedGammaCF(1.0), GaussianCF(2.0)
        assert kolmogorov_distance(a, b) == kolmogorov_distance(b, a)

    def test_triangle_inequality_on_shared_grid(self):
        a = GaussianCF(2.0)
        b = SymmetrizedGammaCF(1.0)
        c = StableCF(1.5, 1.0)
        xs = np.linspace(-10.0, 10.0, 201)
        quad = QuadratureSpec()
        d_ab = kolmogorov_distance(a, b, quad, xs)
        d_bc = kolmogorov_distance(b, c, quad, xs)
        d_ac = kolmogorov_distance(a, c, quad, xs)
        assert d_ac <= d_ab + d_bc + 2e-8


class TestFitStable:
    def test_self_fit(self):
        fit = fit_stable(
            StableCF(1.5, 1.0), alpha_grid=(1.25, 1.5, 1.75), scale_grid=(0.5, 1.0, 2.0)
        )
        assert (fit.alpha, fit.scale) == (1.5, 1.0)
        assert fit.distance < 1e-6

    def test_gaussian_is_alpha_two(self):
        # exp(-|t|^2) is the gaussian with variance 2
        fit = fit_stable(
            GaussianCF(2.0), alpha_grid=(1.5, 2.0), scale_grid=(0.5, 1.0, 2.0)
        )
        assert (fit.alpha, fit.scale) == (2.0, 1.0)
        assert fit.distance < 1e-6

    def test_refining_the_grid_never_hurts(self):
        target = sum_rescale(SymmetrizedGammaCF(1.0), 4)
        coarse = fit_stable(target, alpha_grid=(1.2, 1.8), scale_grid=(0.5, 1.0, 2.0))
        fine = fit_stable(
            target, alpha_grid=(1.2, 1.5, 1.8), scale_grid=(0.5, 0.75, 1.0, 1.5, 2.0)
        )
        assert fine.distance <= coarse.distance

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            fit_stable(GaussianCF(1.0), alpha_grid=(), scale_grid=(1.0,))

    def test_ties_resolve_to_smallest_alpha_then_scale(self):
        # every symmetric CDF is 1/2 at x = 0, so all candidates tie there
        fit = fit_stable(
            GaussianCF(1.0), alpha_grid=(1.8, 1.2, 1.5), scale_grid=(2.0, 0.5), x_grid=[0.0]
        )
        assert (fit.alpha, fit.scale, fit.distance) == (1.2, 0.5, 0.0)

    def test_matches_per_candidate_distances(self):
        target = sum_rescale(SymmetrizedGammaCF(1.0), 4)
        alphas, scales = (1.2, 1.5, 1.8), (0.5, 0.75, 1.0, 1.5)
        quad = QuadratureSpec(T=60.0, N=1024)
        xs = np.linspace(-8.0, 8.0, 81)
        best = None
        for a in alphas:
            for c in scales:
                d = kolmogorov_distance(target, StableCF(a, c), quad, xs)
                if best is None or d < best[2]:
                    best = (a, c, d)
        fit = fit_stable(target, alphas, scales, quad, xs)
        assert (fit.alpha, fit.scale) == best[:2]
        assert fit.distance == pytest.approx(best[2], abs=1e-12)


class TestApproxCompare:
    def test_gaussian_family_verdict(self):
        report = approx_compare(
            GaussianCF(1.0), 5, alpha_grid=(1.5,), scale_grid=(0.5, 1.0),
            quad=QuadratureSpec(N=1024),
        )
        assert report.d_gaussian < 1e-9
        assert report.verdict == "gaussian closer"

    def test_report_invariants(self):
        report = approx_compare(
            SymmetrizedGammaCF(1.0), 2, alpha_grid=(1.4, 1.8), scale_grid=(0.8, 1.0),
            quad=QuadratureSpec(N=1024),
        )
        for d in (report.d_gaussian, report.d_stable):
            assert 0.0 <= d <= 1.0
        assert report.best_alpha in report.alpha_grid
        assert report.best_scale in report.scale_grid

    def test_alpha_two_excluded(self):
        report = approx_compare(
            SymmetrizedGammaCF(1.0), 2, alpha_grid=(1.5, 2.0), scale_grid=(1.0,),
            quad=QuadratureSpec(N=1024),
        )
        assert 2.0 not in report.alpha_grid

    def test_heavy_tail_family_rejected(self):
        with pytest.raises(MomentError):
            approx_compare(StableCF(1.5, 1.0), 4)

    def test_bad_m_rejected(self):
        with pytest.raises(InputError):
            approx_compare(SymmetrizedGammaCF(1.0), 0)

    @pytest.mark.parametrize("m", [2.5, True])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(InputError):
            approx_compare(SymmetrizedGammaCF(1.0), m)

    def test_tie_within_tolerance(self):
        report = approx_compare(
            SymmetrizedGammaCF(1.0), 2, alpha_grid=(1.5,), scale_grid=(1.0,),
            quad=QuadratureSpec(N=1024), tie_tol=1.0,
        )
        assert report.verdict == "tie"

    def test_reports_the_quadrature_used(self):
        quad = QuadratureSpec(N=1024)
        report = approx_compare(
            GaussianCF(1.0), 2, alpha_grid=(1.0, 1.5), scale_grid=(0.25, 1.0), quad=quad,
        )
        # the slowest candidate, exp(-t / 4), sets the shared truncation
        T = _cdf_matrix([StableCF(1.0, 0.25)], np.array([1.0]), quad)[1]
        assert report.quadrature == {"T": T, "N": 1024, "nodes": 1025, "eps_tail": 1e-10}

    def test_degenerate_family_rejected(self):
        with pytest.raises(InputError):
            approx_compare(limit_gaussian(0.0), 4)
