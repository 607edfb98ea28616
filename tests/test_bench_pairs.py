"""tools/bench_pairs.py's verdict on one metric over paired runs, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
judge = bench_pairs._judge

# a lower-is-better metric: parent quartiles 1.0225 and 1.0675, a spread of 0.045
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _losing(pairs):
    """A change 30% below the parent, except in the given pairs, where it is 0.5 above."""
    return [p + 0.5 if i in pairs else 0.7 * p for i, p in enumerate(PARENT)]


def test_better_at_nine_wins_in_ten_with_a_gap_above_the_parent_spread():
    s = judge(PARENT, _losing({3}), "lower", 0.25)
    assert (s["wins"], s["pairs"], s["verdict"]) == (9, 10, "better")
    # medians 1.045 and 0.7385, between 0.7 times 1.05 and 1.06
    assert s["relative_change"] == pytest.approx(0.7385 / 1.045 - 1.0)


def test_not_better_at_eight_wins_in_ten():
    s = judge(PARENT, _losing({3, 6}), "lower", 0.25)
    assert (s["wins"], s["verdict"]) == (8, "flat")


def test_not_better_when_the_gap_is_within_the_parent_spread():
    change = [p - 0.02 for p in PARENT]
    s = judge(PARENT, change, "lower", 0.25)
    assert (s["wins"], s["verdict"]) == (10, "flat")


def test_worse_past_the_bound_and_flat_within_it():
    assert judge(PARENT, [1.3 * p for p in PARENT], "lower", 0.25)["verdict"] == "worse"
    assert judge(PARENT, [1.2 * p for p in PARENT], "lower", 0.25)["verdict"] == "flat"


# a higher-is-better metric whose parent quartile distance (112.5 to 187.5)
# exceeds the bound's 25% of its median 150
WIDE = [100.0, 200.0, 100.0, 150.0, 200.0, 150.0, 100.0, 150.0, 200.0, 150.0]


def test_flat_when_every_change_run_beats_every_parent_run():
    s = judge(WIDE, [201.0] * 10, "higher", 0.25)
    assert s["parent"]["q3"] - s["parent"]["q1"] == 75.0
    # ten wins, but a gain of 51 within the parent's spread
    assert (s["wins"], s["verdict"]) == (10, "flat")


def test_unresolved_when_one_change_run_does_not_beat_every_parent_run():
    change = [201.0] * 10
    change[0] = 199.0  # still beats its own pair's 100
    s = judge(WIDE, change, "higher", 0.25)
    assert (s["wins"], s["verdict"]) == (10, "unresolved")


def test_the_sign_follows_the_metric_direction():
    change = _losing(set())
    lower = judge(PARENT, change, "lower", 0.25)
    higher = judge(PARENT, change, "higher", 0.25)
    assert (lower["wins"], lower["verdict"]) == (10, "better")
    # the same runs read as 30% fewer of something wanted more of
    assert (higher["wins"], higher["verdict"]) == (0, "worse")
    assert lower["relative_change"] == higher["relative_change"] == pytest.approx(-0.3)


def _runs(parent, change):
    """Paired runs as (failed, attempted) per run and side."""
    return {side: [{"failed": f, "attempted": a} for f, a in pairs]
            for side, pairs in (("parent", parent), ("change", change))}


def test_failed_share_rose_when_the_change_fails_a_larger_share():
    s = bench_pairs._failures(_runs([(1, 100), (0, 100)], [(2, 100), (1, 100)]))
    assert s["failed"] == {"parent": 1, "change": 3}
    assert s["attempted"] == {"parent": 200, "change": 200}
    assert s["failed_share"] == {"parent": 0.005, "change": 0.015}
    assert s["failed_share_rose"] is True


def test_failed_share_is_a_share_not_a_count():
    # more failures, but of more attempts: the share fell
    s = bench_pairs._failures(_runs([(2, 100), (2, 100)], [(3, 400), (3, 400)]))
    assert s["failed"] == {"parent": 4, "change": 6}
    assert s["failed_share_rose"] is False


def test_failed_share_flat_without_failures_or_attempts():
    assert not bench_pairs._failures(_runs([(0, 50)] * 2, [(0, 80)] * 2))["failed_share_rose"]
    s = bench_pairs._failures(_runs([(0, 0)] * 2, [(0, 0)] * 2))
    assert s["failed_share"] == {"parent": 0.0, "change": 0.0} and not s["failed_share_rose"]


def test_main_prints_and_stores_a_rise_in_the_failed_share(tmp_path, monkeypatch, capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))

    def fake_run(checkout, workload, seed, seconds):
        # equal timings; the change fails 2 of its 10 operations a run
        return {"seed": seed, "correct": True, "attempted": 10,
                "failed": 0 if checkout == parent else 2, "environment": None,
                "metrics": {"ops_per_s": 100.0}}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out), "--pairs", "2"]) == 0
    assert "failed share rose: parent 0, change 0.2" in capsys.readouterr().out
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["failed_share_rose"] is True and summary["failed"]["change"] == 4


def test_main_keeps_the_completed_runs_when_a_run_fails(tmp_path, monkeypatch, capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "v"}, {"name": "w"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        # the third run of w, the change's, which runs first in pair 2, fails
        calls.append(workload)
        if calls.count("w") == 3:
            raise bench_pairs.RunFailed(3, "Traceback ...\nValueError: boom\n")
        return {"seed": seed, "correct": True, "attempted": 10, "failed": 0,
                "environment": None, "metrics": {"ops_per_s": 100.0}}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--out", str(out), "--pairs", "3", "--seeds", "5,6"]) == 1
    assert "w pair 2/3 seed 6: change run exited 3:" in capsys.readouterr().out
    record = json.loads(out.read_text())
    assert record["failed_run"] == {"side": "change", "workload": "w", "seed": 6,
                                    "exit_code": 3,
                                    "stderr": "Traceback ...\nValueError: boom\n"}
    # v's summary and w's two completed runs, those of pair 1, are kept
    assert record["workloads"]["v"]["summary"]["ops_per_s"]["pairs"] == 3
    assert [len(record["workloads"]["w"]["runs"][side]) for side in bench_pairs.SIDES] == [1, 1]
