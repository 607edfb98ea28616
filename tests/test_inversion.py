import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iddlab import (
    CompoundPoissonCF,
    ConfigError,
    EmpiricalCF,
    GaussianCF,
    InputError,
    MomentError,
    QuadratureError,
    QuadratureSpec,
    StableCF,
    SymmetricCF,
    SymmetrizedGammaCF,
    approx_compare,
    cdf_from_cf,
    convolve,
    fit_stable,
    kolmogorov_distance,
    limit_gaussian,
    moments,
    root_rescale,
    sum_rescale,
)
from iddlab import cf_core, inversion
from iddlab.inversion import _cdf_matrix, _coefficients, _nodes_and_weights, _symmetric_grid

# dense-grid closed-form CDF suprema from tools/make_oracles.py
KS_LAPLACE_VS_GAUSS2 = 0.062021369217940658
KS_GAUSS1_VS_GAUSS121 = 0.0230448321373804


def normal_cdf(x, variance=1.0):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * variance)))


class TestQuadratureSpec:
    def test_node_floor(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(N=32)

    def test_truncation_positive(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(T=-1.0)

    def test_budget_is_chosen_by_default(self):
        assert QuadratureSpec().N is None

    def test_values_stored_as_numbers(self):
        quad = QuadratureSpec(N=2048.0)
        assert quad.N == 2048 and type(quad.N) is int
        assert cdf_from_cf(GaussianCF(1.0), 1.0, quad) == pytest.approx(normal_cdf(1.0), abs=1e-9)

    def test_non_integral_budget_rejected(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(N=100.7)

    def test_boolean_budget_rejected(self):
        with pytest.raises(ConfigError):
            QuadratureSpec(N=True)

    @pytest.mark.parametrize("N", [math.nan, math.inf, 10**400, 2**18 + 4])
    def test_non_finite_or_huge_budget_rejected(self, N):
        with pytest.raises(ConfigError):
            QuadratureSpec(N=N)


class TestCdfFromCf:
    def test_symmetry_point_exact(self):
        assert cdf_from_cf(GaussianCF(1.0), 0.0) == 0.5

    def test_gaussian_against_erf(self):
        xs = np.arange(-4.0, 4.5, 0.5)
        got = cdf_from_cf(GaussianCF(1.0), xs)
        expect = [normal_cdf(x) for x in xs]
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_narrow_gaussian_against_erf(self):
        # f falls below 1e-10 before t = 1, so the nodes are uniform on [0, T]
        cf = GaussianCF(100.0)
        assert inversion._auto_truncation(cf) < 1.0
        xs = np.arange(-40.0, 45.0, 5.0)
        expect = [normal_cdf(x, 100.0) for x in xs]
        np.testing.assert_allclose(cdf_from_cf(cf, xs), expect, rtol=0.0, atol=1e-12)

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

    @pytest.mark.parametrize("x", [[], [1.0, math.nan], math.inf], ids=["empty", "nan", "inf"])
    def test_empty_or_non_finite_x_rejected(self, x):
        with pytest.raises(InputError, match="x must be nonempty and finite"):
            cdf_from_cf(GaussianCF(1.0), x)

    def test_values_stay_probabilities(self):
        xs = np.linspace(-50.0, 50.0, 101)
        vals = cdf_from_cf(GaussianCF(0.25), xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_slowly_decaying_cf_rejected(self):
        # near-degenerate law: the CF never falls below 1e-10, so
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

    @pytest.mark.parametrize(
        "cf, closed_form",
        [
            (StableCF(1.5, 1.0), lambda mp, t: mp.exp(-(t**1.5))),
            (sum_rescale(SymmetrizedGammaCF(0.5), 10), lambda mp, t: (1 + t * t / 10) ** -5),
            (
                convolve(GaussianCF(1.0), CompoundPoissonCF(2.0, 1.0)),
                lambda mp, t: mp.exp(-t * t / 2 + 2 * (mp.cos(t) - 1)),
            ),
        ],
        ids=["stable", "symgamma-sum", "gauss-cpoisson"],
    )
    def test_against_high_precision_quadrature(self, cf, closed_form):
        # F(x) = 1/2 + (1/pi) int_0^inf f(t) sin(t x) / t dt from the
        # closed-form CF at 20 digits, split where the integrand oscillates
        mp = pytest.importorskip("mpmath")
        breaks = [0, 2, 5, 10, 20, 40, 80, mp.inf]
        with mp.workdps(20):
            for x in (0.3, 1.0, 2.5):
                integral = mp.quad(lambda t: closed_form(mp, t) * mp.sin(t * x) / t, breaks)
                oracle = float(0.5 + integral / mp.pi)
                assert cdf_from_cf(cf, x) == pytest.approx(oracle, abs=1e-8)


class TestCdfMatrix:
    def test_batched_columns_match_single_law(self):
        # more columns than one coefficient block, at one explicit truncation
        alphas, scales = (1.0, 1.3, 1.6, 1.9), tuple(np.geomspace(0.5, 2.0, 10))
        laws = [GaussianCF(1.0), SymmetrizedGammaCF(1.0)]
        quad = QuadratureSpec(T=40.0, N=1024)
        xs = np.linspace(-6.0, 6.0, 41)
        F, q, _ = _cdf_matrix(laws, xs, quad, (alphas, scales))
        laws += [StableCF(a, c) for a in alphas for c in scales]
        assert F.shape == (xs.size, len(laws))
        assert (q["T"], q["nodes"]) == (40.0, 1025)
        for j, cf in enumerate(laws):
            np.testing.assert_allclose(F[:, j], cdf_from_cf(cf, xs, quad), rtol=0, atol=1e-12)

    def test_error_rests_on_target_rivals_and_closest_candidate(self):
        # column 0 is the target and every other law is compared with it;
        # of the candidate columns only the closest counts
        quad = QuadratureSpec(T=40.0, N=256)
        xs = np.linspace(-6.0, 6.0, 41)
        target = sum_rescale(SymmetrizedGammaCF(1.0), 4)
        rough, near = StableCF(1.2, 3.0), StableCF(1.7, 0.9)
        grid = ((1.0, 1.2, 1.7), (0.9, 3.0))
        candidates = [StableCF(a, c) for a in grid[0] for c in grid[1]]
        e = [_cdf_matrix([cf], xs, quad)[1]["error"] for cf in [target, *candidates]]
        assert max(e) == e[1 + candidates.index(rough)]
        F, q, gaps = _cdf_matrix([target], xs, quad, grid)
        assert np.array_equal(gaps, np.max(np.abs(F[:, 1:] - F[:, :1]), axis=0))
        assert candidates[int(np.argmin(gaps))] == near
        assert q["error"] == pytest.approx(e[0] + e[1 + candidates.index(near)], rel=1e-9)
        q = _cdf_matrix([target, rough], xs, quad, grid)[1]
        assert q["error"] == pytest.approx(e[0] + e[1 + candidates.index(rough)], rel=1e-9)

    def test_shared_truncation_is_the_largest_automatic_one(self):
        quad = QuadratureSpec()
        slow = StableCF(1.0, 0.25)  # |f| = exp(-t / 4) reaches 1e-10 only past t = 92
        T_fast = _cdf_matrix([GaussianCF(1.0)], np.array([1.0]), quad)[1]["T"]
        T_slow = _cdf_matrix([slow], np.array([1.0]), quad)[1]["T"]
        assert T_fast < 92.0 < T_slow
        assert _cdf_matrix([GaussianCF(1.0), slow], np.array([1.0]), quad)[1]["T"] == T_slow


def _first_below(cf):
    """Index of the first probe t with |f(t)| < 1e-10, by a full probe."""
    return int(np.flatnonzero(np.abs(cf.evaluate(inversion._T_PROBE)) < 1e-10)[0])


class TestSharedTruncation:
    MIXED = [
        convolve(GaussianCF(1.0), CompoundPoissonCF(2.0, 1.0)),
        convolve(GaussianCF(0.5), EmpiricalCF(np.array([0.3, -1.0, 2.5, 1.7]))),
        StableCF(1.0, 0.5),
        StableCF(1.9, 2.0),
    ]

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_equals_the_largest_per_law_truncation(self, order):
        laws = self.MIXED[::order]
        shared = inversion._auto_truncation(*laws)
        assert shared == inversion._T_PROBE[max(_first_below(cf) for cf in laws)]
        assert shared == max(inversion._auto_truncation(cf) for cf in laws)

    def test_never_decaying_law_after_the_dominant_one_refused(self):
        # the stable law sets the truncation first; the lattice law's |f|
        # is above 1e-10 there, so it is probed in full and refused
        with pytest.raises(QuadratureError, match="does not decay"):
            inversion._auto_truncation(StableCF(1.0, 0.25), CompoundPoissonCF(2.0, 1.0))

    def test_only_laws_raising_the_truncation_are_probed_in_full(self, monkeypatch):
        family = SymmetrizedGammaCF(0.5)
        laws = [sum_rescale(family, 10), GaussianCF(moments(family).mu2)]
        candidates = [
            StableCF(a, c)
            for a in inversion.DEFAULT_ALPHA_GRID
            for c in inversion.DEFAULT_SCALE_GRID
        ]
        # probed one by one, every law and candidate
        k = max(map(_first_below, laws + candidates))
        probes = []
        evaluate = SymmetricCF.evaluate

        def counting(cf, t):
            if np.size(t) == inversion._T_PROBE.size:
                probes.append(cf)
            return evaluate(cf, t)

        monkeypatch.setattr(SymmetricCF, "evaluate", counting)
        report = approx_compare(family, 10)
        assert report.quadrature["T"] == inversion._T_PROBE[k]
        assert probes == [*laws, StableCF(1.0, 0.25)]

    @pytest.mark.parametrize("alphas, scales", [
        (inversion.DEFAULT_ALPHA_GRID, inversion.DEFAULT_SCALE_GRID),
        ((0.3, 0.5, 0.8), (0.5, 1.0, 4.0)),
        ((1.0, 1.5, 2.0), (0.1, 1.0, 10.0)),
    ], ids=["default", "alpha-below-1", "alpha-2"])
    def test_grid_truncation_is_the_largest_per_candidate_one(self, alphas, scales):
        # the law decays before the first probe point, so the grid sets T
        narrow = GaussianCF(1e6)
        T = _cdf_matrix([narrow], np.array([0.0]), QuadratureSpec(N=64), (alphas, scales))[1]["T"]
        assert T == max(inversion._auto_truncation(StableCF(a, c)) for a in alphas for c in scales)

    def test_grid_too_slow_to_decay_refused_like_its_slowest_candidate(self):
        alphas, scales = (1.0, 1.5), (1e-6, 1.0)
        with pytest.raises(QuadratureError) as by_grid:
            _cdf_matrix([GaussianCF(1e6)], np.array([0.0]), QuadratureSpec(N=64),
                        (alphas, scales))
        with pytest.raises(QuadratureError) as one_by_one:
            max(inversion._auto_truncation(StableCF(a, c)) for a in alphas for c in scales)
        assert str(by_grid.value) == str(one_by_one.value)

    def test_default_grid_builds_one_candidate_object_per_alpha(self, monkeypatch):
        built = []
        init = cf_core._Transform.__post_init__

        def counting(cf):
            if type(cf) is StableCF:
                built.append(cf)
            init(cf)

        monkeypatch.setattr(cf_core._Transform, "__post_init__", counting)
        approx_compare(SymmetrizedGammaCF(0.5), 10)
        alphas, scales = inversion.DEFAULT_ALPHA_GRID, inversion.DEFAULT_SCALE_GRID
        assert len(built) <= len(alphas) + len(scales)


def _runs(laws, grid):
    """The runs _cdf_matrix lays out: each law, then one unit-scale law per alpha."""
    alphas, scales = grid
    return [(cf, None) for cf in laws] + [(StableCF(a, 1.0), np.array(scales)) for a in alphas]


class TestCoefficientFlush:
    T = 93.32543007969915  # the criterion-9 truncation
    LAWS = [sum_rescale(SymmetrizedGammaCF(0.5), 10), GaussianCF(2.0)]
    GRID = ((1.0, 1.95), (0.25, 4.0))
    RUNS = _runs(LAWS, GRID)
    COLUMNS = LAWS + [StableCF(1.0, 0.25), StableCF(1.0, 4.0), StableCF(1.95, 0.25),
                      StableCF(1.95, 4.0)]

    def test_no_subnormal_coefficient(self):
        t, w, w_half = _nodes_and_weights(1024, self.T)
        for tt, ww in ((t[1:], w[1:]), (t[2::2], w_half[1:])):
            c = _coefficients(self.RUNS, range(len(self.COLUMNS)), tt, ww)
            assert not np.any((c != 0.0) & (np.abs(c) < np.finfo(float).tiny))

    def test_flushed_product_is_bit_identical(self):
        t, w, _ = _nodes_and_weights(1024, self.T)
        t, w = t[1:], w[1:]
        raw = np.stack([w * cf.evaluate(t) / t for cf in self.COLUMNS], axis=1)
        assert np.any((raw != 0.0) & (np.abs(raw) < np.finfo(float).tiny))
        kernel = np.sin(np.outer(np.abs(_symmetric_grid(8.0)), t))
        c = _coefficients(self.RUNS, range(len(self.COLUMNS)), t, w)
        assert np.array_equal(kernel @ c, kernel @ raw)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestCandidateBlock:
    LAWS = [sum_rescale(SymmetrizedGammaCF(0.5), 10), GaussianCF(2.0)]

    @given(
        alphas=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                                  st.floats(0.0, 2.0, exclude_min=True)),
                        min_size=1, max_size=3),
        scales=st.lists(_log_uniform(1e-3, 1e3), min_size=1, max_size=4),
        picks=st.sets(st.integers(0, 13), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_match_per_candidate_objects(self, alphas, scales, picks):
        # any ascending selection of layout columns, laws and candidates mixed
        t, w, _ = _nodes_and_weights(256, 93.3)
        t, w = t[1:], w[1:]
        columns = self.LAWS + [StableCF(a, c) for a in alphas for c in scales]
        cols = sorted(k for k in picks if k < len(columns)) or [len(columns) - 1]
        raw = np.stack([w * columns[k].evaluate(t) / t for k in cols], axis=1)
        raw[np.abs(raw) < np.finfo(float).tiny] = 0.0
        block = _coefficients(_runs(self.LAWS, (alphas, scales)), cols, t, w)
        assert np.array_equal(block, raw)


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

    @pytest.mark.parametrize("alphas, scales", [
        ((1.5, math.nan), (1.0,)), ((0.0,), (1.0,)), ((2.5,), (1.0,)),
        ((1.5,), (-1.0,)), ((1.5,), (math.nan,)), ((1.5,), (math.inf,)),
        (("x",), (1.0,)), (None, (1.0,)), (1.5, (1.0,)), ((1.5,), (1.0, "y")),
    ])
    def test_bad_grid_entry_rejected(self, alphas, scales):
        with pytest.raises(InputError):
            fit_stable(GaussianCF(1.0), alpha_grid=alphas, scale_grid=scales)

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

    @pytest.mark.parametrize("alpha", [math.nan, 2.5, 7.0])
    def test_alpha_outside_the_stable_range_rejected(self, alpha):
        # only alpha = 2 is dropped; every other bad entry is refused
        with pytest.raises(InputError):
            approx_compare(SymmetrizedGammaCF(1.0), 2, alpha_grid=(1.5, 2.0, alpha),
                           scale_grid=(1.0,), quad=QuadratureSpec(N=1024))

    @pytest.mark.parametrize("alphas, scales", [
        (("x", 2.0), (1.0,)), (None, (1.0,)), (1.5, (1.0,)), ((1.5,), (1.0, "y")),
        ((10**400,), (1.0,)),
    ])
    def test_malformed_grid_rejected(self, alphas, scales):
        with pytest.raises(InputError):
            approx_compare(SymmetrizedGammaCF(1.0), 2, alpha_grid=alphas, scale_grid=scales)

    def test_explicit_truncation_answers_where_automatic_refuses(self):
        grid = dict(alpha_grid=(0.05, 1.5), scale_grid=(1.0,))
        report = approx_compare(SymmetrizedGammaCF(1.0), 4, **grid,
                                quad=QuadratureSpec(T=50.0, N=1024))
        assert report.quadrature["T"] == 50.0
        with pytest.raises(QuadratureError):
            approx_compare(SymmetrizedGammaCF(1.0), 4, **grid)

    def test_heavy_tail_family_rejected(self):
        with pytest.raises(MomentError):
            approx_compare(StableCF(1.5, 1.0), 4)

    def test_bad_m_rejected(self):
        with pytest.raises(InputError):
            approx_compare(SymmetrizedGammaCF(1.0), 0)

    @pytest.mark.parametrize("m", [2.5, True, "3", None, [2], pytest.param(10**400, id="10**400")])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(InputError):
            approx_compare(SymmetrizedGammaCF(1.0), m)

    def test_tie_within_tolerance(self, monkeypatch):
        monkeypatch.setattr(inversion, "TIE_TOLERANCE", 1.0)
        report = approx_compare(
            SymmetrizedGammaCF(1.0), 2, alpha_grid=(1.5,), scale_grid=(1.0,),
            quad=QuadratureSpec(N=1024),
        )
        assert report.verdict == "tie"

    def test_reports_the_quadrature_used(self):
        quad = QuadratureSpec(N=1024)
        report = approx_compare(
            GaussianCF(1.0), 2, alpha_grid=(1.0, 1.5), scale_grid=(0.25, 1.0), quad=quad,
        )
        # the slowest candidate, exp(-t / 4), sets the shared truncation
        T = _cdf_matrix([StableCF(1.0, 0.25)], np.array([1.0]), quad)[1]["T"]
        error = report.quadrature["error"]
        assert report.quadrature == {"T": T, "N": 1024, "nodes": 1025, "error": error}

    def test_degenerate_family_rejected(self):
        with pytest.raises(InputError):
            approx_compare(limit_gaussian(0.0), 4)


class TestErrorEstimate:
    CASES = [
        (SymmetrizedGammaCF(0.5), 10),
        (SymmetrizedGammaCF(0.5), 4),
        (SymmetrizedGammaCF(1.0), 4),
        (SymmetrizedGammaCF(2.0), 25),
        (convolve(GaussianCF(1.3), CompoundPoissonCF(2.0, 1.0)), 25),
    ]

    @pytest.mark.parametrize(
        "family, m", CASES, ids=["symgamma-0.5-m10", "symgamma-0.5-m4", "symgamma-1-m4",
                                 "symgamma-2-m25", "gauss-cpoisson-m25"]
    )
    def test_compare_error_covers_the_gap_to_a_fine_run(self, family, m):
        report = approx_compare(family, m)
        q = report.quadrature
        # one pass at the starting budget
        assert q["N"] == 1024 and q["error"] <= 1e-6
        # the three reported columns again, at 16384 nodes and the same truncation
        laws = [sum_rescale(family, m), GaussianCF(moments(family).mu2),
                StableCF(report.best_alpha, report.best_scale)]
        xs = _symmetric_grid(report.x_grid["max"])
        F = _cdf_matrix(laws, xs, QuadratureSpec(T=q["T"], N=16384))[0]
        d_gaussian, d_stable = np.max(np.abs(F[:, 1:] - F[:, :1]), axis=0)
        assert abs(report.d_gaussian - d_gaussian) <= q["error"]
        assert abs(report.d_stable - d_stable) <= q["error"]

    @pytest.mark.parametrize("cf", [GaussianCF(1.0), StableCF(1.0, 1.0)], ids=["gauss", "cauchy"])
    def test_cdf_error_covers_the_gap_to_a_fine_run(self, cf):
        xs = np.linspace(-6.0, 6.0, 61)
        F, q, _ = _cdf_matrix([cf], xs, QuadratureSpec())
        fine = _cdf_matrix([cf], xs, QuadratureSpec(T=q["T"], N=16384))[0]
        assert q["N"] == 1024 and q["error"] <= 1e-6
        assert np.max(np.abs(F - fine)) <= q["error"]

    def test_tiny_tolerance_doubles_the_budget(self, monkeypatch):
        grid = dict(alpha_grid=(1.5,), scale_grid=(1.0,))
        loose = approx_compare(SymmetrizedGammaCF(1.0), 4, **grid)
        monkeypatch.setattr(inversion, "_TOL", 1e-10)
        tight = approx_compare(SymmetrizedGammaCF(1.0), 4, **grid)
        assert loose.quadrature["N"] == 1024 and loose.quadrature["error"] > 1e-10
        assert tight.quadrature["N"] > 1024
        assert tight.quadrature["nodes"] == tight.quadrature["N"] + 1
        assert tight.quadrature["error"] <= 1e-10

    def test_unreachable_tolerance_refused(self, monkeypatch):
        monkeypatch.setattr(inversion, "_TOL", 1e-13)
        with pytest.raises(QuadratureError, match="exceeds 1e-13"):
            cdf_from_cf(SymmetrizedGammaCF(0.5), 1.0, QuadratureSpec(T=1e4))

    def test_fixed_budget_reports_its_error_without_refusing(self):
        quad = QuadratureSpec(T=1e4, N=64)
        F, q, _ = _cdf_matrix([SymmetrizedGammaCF(0.5)], np.array([1.0]), quad)
        assert (q["N"], q["nodes"]) == (64, 65) and q["error"] > 1e-6

    def test_marginal_decay_up_to_x_8_meets_the_tolerance(self):
        # (1 + t^2)^(-1/2) at T = 1e4: the fixed 4096-node rule was off by
        # about 1e-4 here; the chosen budget must still answer, within 1e-6
        cf = SymmetrizedGammaCF(0.5)
        xs = np.linspace(0.2, 8.0, 24)
        F, q, _ = _cdf_matrix([cf], xs, QuadratureSpec(T=1e4))
        assert q["error"] <= 1e-6 and q["N"] <= 2**17
        fine = _cdf_matrix([cf], xs, QuadratureSpec(T=1e4, N=2**18))[0]
        assert np.max(np.abs(F - fine)) <= 1e-6
        coarse = _cdf_matrix([cf], xs, QuadratureSpec(T=1e4, N=4096))[0]
        assert np.max(np.abs(coarse - fine)) > 1e-5

    def test_former_budget_reproduces_the_fixed_rule(self):
        # the criterion-9 case as the fixed 4096-node rule computed it
        fixed = approx_compare(SymmetrizedGammaCF(0.5), 10, quad=QuadratureSpec(N=4096))
        assert fixed.d_gaussian == 0.01372438874052917
        assert fixed.d_stable == 0.0033273201360512483
        assert (fixed.best_alpha, fixed.best_scale) == (1.85, 0.6597539553864472)
        assert (fixed.quadrature["N"], fixed.quadrature["nodes"]) == (4096, 4097)
        adaptive = approx_compare(SymmetrizedGammaCF(0.5), 10)
        assert adaptive.quadrature["N"] == 1024
        assert adaptive.d_gaussian == pytest.approx(fixed.d_gaussian, abs=1e-8)
        assert adaptive.d_stable == pytest.approx(fixed.d_stable, abs=1e-8)
        assert (adaptive.best_alpha, adaptive.best_scale, adaptive.verdict) == (
            fixed.best_alpha, fixed.best_scale, fixed.verdict)
