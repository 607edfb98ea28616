import json
import math
import warnings

import numpy as np
import pytest

import iddlab.cli as cli
from iddlab.cli import main, render_json
from iddlab.laplace_core import StableSubordinator, limit_deviation_L, support_touches_zero
from iddlab.metrics import BoundCheck


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRenderJson:
    def test_floats_round_trip(self):
        vals = [0.1, 1.0 / 3.0, 1e-300, math.pi, -2.5e17]
        text = render_json({"v": vals})
        assert json.loads(text)["v"] == vals

    def test_non_finite_as_strings(self):
        text = render_json([math.inf, -math.inf, math.nan])
        assert json.loads(text) == ["inf", "-inf", "nan"]

    def test_numpy_scalars_and_arrays(self):
        text = render_json({"a": np.float64(0.5), "n": np.int64(3), "xs": np.array([1.0, 2.0])})
        assert json.loads(text) == {"a": 0.5, "n": 3, "xs": [1.0, 2.0]}

    def test_booleans_and_null(self):
        assert json.loads(render_json([True, False, None])) == [True, False, None]

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            render_json({"x": object()})


class TestReportEnvelope:
    def test_detect_report_shape(self, capsys):
        report = run_json(capsys, "detect", "--family", "symgamma", "--shape", "1")
        assert report["schema"] == "iddlab-report/1"
        assert report["command"] == "detect"
        assert set(report) == {"schema", "command", "config", "result", "diagnostics", "meta"}
        assert report["result"]["has_gaussian_component"] is False
        assert report["config"]["family"] == {"kind": "symgamma", "shape": 1.0}
        assert "generated_at" in report["meta"]
        assert "generated_at" not in report["result"]

    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "kurtosis", "--family", "gauss", "--variance", "1",
            "--m", "3", "--output", str(path),
        )
        assert code == 0 and out == ""
        report = json.loads(path.read_text())
        assert report["command"] == "kurtosis"

    def test_detect_carries_gaussian_estimate(self, capsys):
        report = run_json(
            capsys, "detect", "--family", "gauss", "--variance", "1.4",
            "--convolve", "cpoisson:rate=3,jump=1",
        )
        assert report["result"]["has_gaussian_component"] is True
        assert report["result"]["a_hat"] == pytest.approx(0.7, abs=1e-4)
        assert len(report["result"]["remainder_profile"]) == 101


class TestSubcommands:
    def test_rescale_fixed_point(self, capsys):
        report = run_json(
            capsys, "rescale", "--family", "gauss", "--variance", "2",
            "--m", "5", "--check-fixed-point",
        )
        assert report["result"]["fixed_point"]["is_fixed_point"] is True
        assert report["result"]["sup_abs_difference"] < 1e-12

    def test_rescale_sum_transform(self, capsys):
        report = run_json(
            capsys, "rescale", "--family", "symgamma", "--shape", "1",
            "--m", "4", "--transform", "sum", "--points", "11",
        )
        assert len(report["result"]["t"]) == 11
        assert report["result"]["sup_abs_difference"] > 1e-3

    def test_kurtosis_numbers(self, capsys):
        report = run_json(
            capsys, "kurtosis", "--family", "symgamma", "--shape", "1", "--m", "5"
        )
        assert report["result"]["kappa_m"] == pytest.approx(15.0, rel=1e-12)
        assert report["result"]["relative_error"] < 1e-12

    def test_distance_default_competitor_is_matched_gaussian(self, capsys):
        report = run_json(
            capsys, "distance", "--family", "symgamma", "--shape", "1", "--r", "3"
        )
        assert report["config"]["vs"] == {"kind": "gaussian", "variance": 2.0}
        assert report["result"]["lambda_r"] == pytest.approx(0.174158, abs=1e-4)

    def test_distance_on_a_short_grid_is_finite(self, capsys):
        report = run_json(
            capsys, "distance", "--family", "symgamma", "--shape", "1", "--r", "3",
            "--t-max", "0.01",
        )
        assert report["result"]["lambda_r"] == pytest.approx(0.174158, abs=1e-4)
        assert report["diagnostics"]["finite"] is True

    def test_distance_infinite_value_serialized(self, capsys):
        report = run_json(
            capsys, "distance", "--family", "gauss", "--variance", "1",
            "--vs", "gauss:variance=4", "--r", "3",
        )
        assert report["result"]["lambda_r"] == "inf"
        assert report["diagnostics"]["finite"] is False

    def test_bound_check_forward(self, capsys):
        report = run_json(
            capsys, "bound-check", "--family", "symgamma", "--shape", "1",
            "--m", "4", "--r", "3", "--assert",
        )
        assert report["result"]["holds"] is True
        assert report["result"]["lhs"] < report["result"]["rhs"]

    def test_bound_check_backward(self, capsys):
        report = run_json(
            capsys, "bound-check", "--family", "symgamma", "--shape", "1",
            "--m", "4", "--r", "3", "--backward",
        )
        assert report["result"]["direction"] == "backward"
        assert report["result"]["holds"] is True

    def test_laplace_drift(self, capsys):
        report = run_json(
            capsys, "laplace", "drift", "--family", "drift", "--sigma", "2",
        )
        assert report["command"] == "laplace drift"
        assert report["result"]["sigma_hat"] == pytest.approx(2.0, rel=1e-12)

    def test_laplace_support(self, capsys):
        report = run_json(
            capsys, "laplace", "support", "--family", "gammasub", "--shape", "2",
        )
        assert report["result"]["touches_zero"] is True

    def test_laplace_limit_with_known_sigma(self, capsys):
        report = run_json(
            capsys, "laplace", "limit", "--family", "gammasub", "--shape", "1",
            "--convolve", "drift:sigma=2", "--m", "100", "--S", "10",
            "--known-sigma", "2",
        )
        assert report["result"]["sigma_source"] == "provided"
        assert 0.0 < report["result"]["deviation"] < 0.05

    def test_approx_compare_tiny_grid(self, capsys):
        report = run_json(
            capsys, "approx-compare", "--family", "gauss", "--variance", "1",
            "--m", "2", "--alpha-grid", "1.5:1.5:1", "--scale-grid", "1.0:1.0:1",
            "--quad-n", "512",
        )
        assert report["result"]["verdict"] == "gaussian closer"
        assert report["result"]["d_gaussian"] == 0.0

    def test_approx_compare_budget(self, capsys, tmp_path):
        argv = ["approx-compare", "--family", "gauss", "--variance", "1", "--m", "2",
                "--alpha-grid", "1.5:1.5:1", "--scale-grid", "1.0:1.0:1"]
        report = run_json(capsys, *argv)
        assert report["config"]["quad_n"] is None
        assert report["result"]["quadrature"]["N"] == 1024
        assert report["result"]["quadrature"]["error"] <= 1e-6
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad_n": 64}))
        report = run_json(capsys, *argv, "--config", str(cfg))
        assert report["config"]["quad_n"] == 64
        assert report["result"]["quadrature"]["N"] == 64

    @pytest.mark.parametrize("flag", [["--quad-n", "100.7"], ["--quad-n", "32"],
                                      ["--quad-n", "nan"]])
    def test_approx_compare_bad_quadrature_is_one(self, capsys, flag):
        code, out, err = run(
            capsys, "approx-compare", "--family", "gauss", "--variance", "1", "--m", "2",
            *flag,
        )
        assert code == 1 and out == "" and err.startswith("iddlab: input error")

    def test_empirical_summary(self, capsys, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n1.0\n-1.0\n\n")
        report = run_json(capsys, "empirical", "--input", str(path), "--cf-points", "5")
        assert report["result"]["n"] == 2
        assert report["result"]["mean"] == 0.0
        grid = np.array(report["result"]["cf_t"])
        np.testing.assert_allclose(report["result"]["cf_values"], np.cos(grid), atol=1e-12)


class TestConfigMerge:
    def test_file_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 9, "method": "closed-form"}))
        report = run_json(
            capsys, "kurtosis", "--family", "symgamma", "--shape", "1",
            "--config", str(cfg), "--method", "finite-difference",
        )
        assert report["result"]["m"] == 9
        assert report["config"]["method"] == "finite-difference"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(
            capsys, "kurtosis", "--family", "gauss", "--variance", "1",
            "--m", "2", "--config", str(cfg),
        )
        assert code == 1 and "bogus" in err

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        code, _, err = run(
            capsys, "detect", "--family", "gauss", "--variance", "1",
            "--config", str(cfg),
        )
        assert code == 1


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["detect", "--family", "weibull"]) == 1

    def test_missing_parameter_is_one(self, capsys):
        code, _, err = run(capsys, "detect", "--family", "gauss")
        assert code == 1 and "variance" in err

    def test_no_command_is_one(self, capsys):
        assert main([]) == 1

    def test_sample_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nouch\n")
        code, _, err = run(capsys, "empirical", "--input", str(path))
        assert code == 1 and "line 2" in err

    def test_missing_sample_file_is_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "empirical", "--input", str(tmp_path / "none.txt"))
        assert code == 1

    @pytest.mark.parametrize("grid", ["0:1:3", "-1:1:1", "0.5:-2:3"])
    def test_nonpositive_log_grid_is_one(self, capsys, grid):
        code, out, err = run(
            capsys, "approx-compare", "--family", "gauss", "--variance", "1",
            "--m", "2", f"--scale-grid={grid}",
        )
        assert code == 1 and out == "" and err.startswith("iddlab:")

    def test_moment_error_is_two(self, capsys):
        code, _, err = run(
            capsys, "kurtosis", "--family", "stable", "--alpha", "1.5",
            "--scale", "1", "--m", "2",
        )
        assert code == 2 and "variance" in err

    def test_positivity_error_is_two(self, capsys, tmp_path):
        # empirical CF cos(t) is negative at points of the default schedule
        path = tmp_path / "pm1.txt"
        path.write_text("1.0\n-1.0\n")
        code, _, err = run(capsys, "detect", "--input", str(path))
        assert code == 2

    def test_quadrature_error_is_two(self, capsys):
        # a fixed-jump compound Poisson CF never decays: no truncation point
        code, out, err = run(
            capsys, "approx-compare", "--family", "cpoisson", "--rate", "2",
            "--jump", "1", "--m", "2",
        )
        assert code == 2 and out == "" and err.startswith("iddlab: numerical error:")

    def test_failed_assertion_is_three(self, capsys, monkeypatch):
        failing = BoundCheck(lhs=1.0, rhs=0.5, holds=False, m=4, r=3.0)
        monkeypatch.setattr(cli, "clt_bound_check", lambda *a, **k: failing)
        code, out, _ = run(
            capsys, "bound-check", "--family", "symgamma", "--shape", "1",
            "--m", "4", "--r", "3", "--assert",
        )
        assert code == 3
        assert json.loads(out)["result"]["holds"] is False

    def test_failed_inequality_without_assert_is_zero(self, capsys, monkeypatch):
        failing = BoundCheck(lhs=1.0, rhs=0.5, holds=False, m=4, r=3.0)
        monkeypatch.setattr(cli, "clt_bound_check", lambda *a, **k: failing)
        code, _, _ = run(
            capsys, "bound-check", "--family", "symgamma", "--shape", "1",
            "--m", "4", "--r", "3",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["kurtosis", "--family", "gauss", "--variance", "1"], {"m": "abc"}),
            (["detect", "--family", "gauss", "--variance", "1"], {"tol": [1]}),
            (["kurtosis", "--family", "gauss", "--variance", "1"], {"m": 2.5}),
            (["rescale", "--family", "gauss", "--variance", "1", "--m", "2", "--points", "0"], None),
            (["rescale", "--family", "gauss", "--variance", "1", "--m", "2", "--points", "-1"],
             None),
            (["rescale", "--family", "gauss", "--variance", "1", "--m", "2", "--t-max", "inf"],
             None),
            (["empirical", "--input", "SAMPLES", "--cf-points", "0"], None),
            (["kurtosis", "--family", "gauss", "--variance", "1", "--m", "3",
              "--output", "OUTDIR/missing/report.json"], None),
            (["laplace", "drift", "--family", "drift", "--sigma", "1"], {"m": 3}),
        ],
        ids=["config-m-text", "config-tol-list", "config-m-fraction", "points-zero",
             "points-negative", "t-max-inf", "cf-points-zero", "output-missing-dir",
             "config-key-of-other-action"],
    )
    def test_input_error_is_one(self, capsys, tmp_path, argv, config):
        samples = tmp_path / "samples.txt"
        samples.write_text("1.0\n-1.0\n")
        argv = [a.replace("SAMPLES", str(samples)).replace("OUTDIR", str(tmp_path))
                for a in argv]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("iddlab: input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "action, flag, value",
        [("drift", "--m", "abc"), ("drift", "--tol", "x"), ("support", "--S", "foo"),
         ("support", "--grid-size", "1.5"), ("drift", "--m", "3")],
    )
    def test_flag_of_other_laplace_action_is_usage_error(self, capsys, action, flag, value):
        code, out, err = run(
            capsys, "laplace", action, "--family", "drift", "--sigma", "1", flag, value
        )
        assert code == 1 and out == ""
        assert err.startswith(f"iddlab: unrecognized arguments: {flag} {value}")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["laplace", "support", "--family", "drift", "--sigma", "1e305"], 1),
            (["detect", "--family", "gauss", "--variance", "1e305"], 1),
            (["rescale", "--family", "gauss", "--variance", "1e307", "--m", "4"], 0),
            (["distance", "--family", "gauss", "--variance", "1e307", "--r", "3"], 0),
            # the variance squared underflows in the excess kurtosis
            (["approx-compare", "--family", "gauss", "--variance", "1e-300", "--m", "2"], 2),
            (["kurtosis", "--family", "gauss", "--variance", "1e-300", "--m", "2"], 0),
            (["distance", "--family", "gauss", "--variance", "1e-300", "--r", "3"], 0),
        ],
        ids=["laplace-support", "detect", "rescale", "distance", "approx-compare-tiny",
             "kurtosis-tiny", "distance-tiny"],
    )
    def test_overflowed_exponent_prints_no_warning(self, capsys, argv, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *argv)
        assert code == expected
        assert err == "" or (err.startswith("iddlab: ") and err.count("\n") == 1)

    def test_alpha_grid_past_two_is_one(self, capsys):
        # 1.5:2.5:3 holds 2.5: alpha = 2 is dropped, alpha = 2.5 refused
        code, out, err = run(
            capsys, "approx-compare", "--family", "symgamma", "--shape", "1", "--m", "2",
            "--alpha-grid", "1.5:2.5:3", "--scale-grid", "1:1:1",
        )
        assert code == 1 and out == ""
        assert err.startswith("iddlab: input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--scale-grid=1:inf:3", "--alpha-grid=1:nan:3"])
    def test_non_finite_grid_end_is_one(self, capsys, flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "approx-compare", "--family", "gauss", "--variance", "1", "--m", "2",
                flag,
            )
        assert code == 1 and out == ""
        assert err.startswith("iddlab: input error:") and err.count("\n") == 1
        assert repr(flag.partition("=")[2]) in err

    @pytest.mark.parametrize(
        "call, argv",
        [("lambda_r", ["distance", "--family", "gauss", "--variance", "1", "--r", "3"]),
         ("approx_compare", ["approx-compare", "--family", "symgamma", "--shape", "1",
                             "--m", "4"])],
        ids=["distance", "approx-compare"],
    )
    def test_memory_error_is_one(self, capsys, monkeypatch, call, argv):
        # a stand-in for a grid too large to allocate; a real request that
        # large may be killed instead of raising on a host that overcommits
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, call, exhausted)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("iddlab: input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["distance", "--family", "gauss", "--variance", "1", "--r", "3",
          "--small-t-policy", "exclude"],
         ["approx-compare", "--family", "gauss", "--variance", "1", "--m", "2",
          "--eps-tail", "1e-9"],
         ["approx-compare", "--family", "gauss", "--variance", "1", "--m", "2",
          "--tie-tol", "1"]],
        ids=["small-t-policy", "eps-tail", "tie-tol"],
    )
    def test_removed_knobs_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"iddlab: unrecognized arguments: {' '.join(argv[-2:])}")


class TestDeterminism:
    def test_repeated_runs_identical_result(self, capsys):
        argv = ["detect", "--family", "symgamma", "--shape", "1"]
        first = run_json(capsys, *argv)
        second = run_json(capsys, *argv)
        assert render_json(first["result"]) == render_json(second["result"])
        assert render_json(first["config"]) == render_json(second["config"])


class TestLaplaceSchedule:
    """--schedule reaches support and limit, from the flag and from a file."""

    LONG = (1e4, 1e6, 1e8)
    LAW = ["--family", "stablesub", "--alpha", "0.5", "--scale", "1"]

    def _schedule_args(self, tmp_path, source):
        if source == "flag":
            return ["--schedule", "1e4,1e6,1e8"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schedule": "1e4,1e6,1e8"}))
        return ["--config", str(path)]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_support_honours_schedule(self, capsys, tmp_path, source):
        report = run_json(
            capsys, "laplace", "support", *self.LAW, *self._schedule_args(tmp_path, source)
        )
        lib = support_touches_zero(StableSubordinator(0.5, 1.0), 1e-4, self.LONG)
        assert lib.touches_zero is True
        assert report["config"]["schedule"] == list(self.LONG)
        assert report["result"] == {
            "touches_zero": lib.touches_zero,
            "sigma_hat": lib.sigma_hat,
            "error_bound": lib.estimate.error_bound,
        }

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_limit_honours_schedule(self, capsys, tmp_path, source):
        report = run_json(
            capsys, "laplace", "limit", *self.LAW, "--m", "10",
            *self._schedule_args(tmp_path, source),
        )
        lt = StableSubordinator(0.5, 1.0)
        lib = limit_deviation_L(lt, 10, 10.0, 1024, tol=1e-4, s_schedule=self.LONG)
        assert report["config"]["schedule"] == list(self.LONG)
        assert report["result"]["deviation"] == lib
        assert lib != limit_deviation_L(lt, 10, 10.0, 1024, tol=1e-4)
