#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: is one change better, and is it worse anywhere?

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
        [--workload compare --workload sweep ...] [--pairs 10] [--seconds S] [--seeds 1,2,3]

Each checkout must hold ``perfbench/run.py`` and ``src/iddlab``.  For each
workload, pair i runs ``perfbench/run.py --workload W --seed S --trace 0``
once in each checkout, one after the other, the parent first in even pairs
and the change first in odd ones; the seed cycles through ``--seeds``.
Workloads and run length default to those of the parent's
``BENCHMARK.json``, whose end-to-end metrics (direction and bound) are the
ones judged.

For every workload and metric the script prints each side's median and
quartiles, the pairs the change won (a tie counts for neither side), and
a verdict:

- ``better`` when the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance;
- ``worse`` when the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved`` when neither holds and the parent's quartile distance
  exceeds the bound, unless every change run beats every parent run;
- ``flat`` otherwise.

Each workload also sums both sides' failed and attempted operations and
prints ``failed share rose`` when the change's share of failed operations
exceeds the parent's, a regression whatever the timings say.

Every run's metrics, failures and seed go to ``--out`` with the summary.
A run that exits non-zero ends the script with status 1: ``--out`` then
holds every completed run and, under ``failed_run``, the failing run's
side, workload, seed, exit code and stderr tail.
The runs are sequential: run nothing else heavy on the host meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    """A run that exited non-zero or printed nothing: its exit code and stderr tail."""

    def __init__(self, exit_code: int, stderr: str):
        super().__init__(f"exited {exit_code}: {stderr}")
        self.exit_code, self.stderr = exit_code, stderr


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(proc.returncode, proc.stderr[-2000:])
    result = json.loads(lines[-1])
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "environment": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _judge(parent, change, better: str, bound: float) -> dict:
    """Summary of one metric over paired runs (parent[i] beside change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p, c = _quartiles(parent), _quartiles(change)
    spread = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    if wins >= 0.9 * len(parent) and gain > spread:
        verdict = "better"
    elif -gain > bound * abs(p["median"]):
        verdict = "worse"
    elif spread > bound * abs(p["median"]) and not min(sign * x for x in change) > max(
            sign * x for x in parent):
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "better": better, "bound": bound, "relative_change":
            c["median"] / p["median"] - 1.0 if p["median"] else None, "verdict": verdict}


def _failures(runs: dict) -> dict:
    """Each side's failed and attempted operations over its runs, its failed
    share, and whether the change's share rose above the parent's."""
    s = {key: {side: sum(r[key] for r in runs[side]) for side in SIDES}
         for key in ("failed", "attempted")}
    s["failed_share"] = {side: s["failed"][side] / s["attempted"][side]
                         if s["attempted"][side] else 0.0 for side in SIDES}
    s["failed_share_rose"] = s["failed_share"]["change"] > s["failed_share"]["parent"]
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = ap.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 2 or not seeds:
        ap.error("need at least two pairs and one seed")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {"seconds": seconds, "pairs": args.pairs, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                try:
                    runs[side].append(_run(checkouts[side], workload, seed, seconds))
                except RunFailed as failure:
                    # keep every completed run, this workload's too
                    record["workloads"][workload] = {"runs": runs}
                    record["failed_run"] = {"side": side, "workload": workload, "seed": seed,
                                            "exit_code": failure.exit_code,
                                            "stderr": failure.stderr}
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {side} run "
                          f"exited {failure.exit_code}:\n{failure.stderr}", flush=True)
                    return 1
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics'].get('ops_per_s', float('nan')):.4g} ops/s"
                for side in SIDES), flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary[name] = _judge([r["metrics"][name] for r in runs["parent"]],
                                   [r["metrics"][name] for r in runs["change"]],
                                   metric["better"], metric["bound"])
        summary.update(_failures(runs))
        summary["all_correct"] = all(r["correct"] for side in SIDES for r in runs[side])
        record["workloads"][workload] = {"runs": runs, "summary": summary}

        print(f"\n{workload}: {args.pairs} pairs of {seconds:g} s runs, failed "
              f"{summary['failed']['parent']}/{summary['attempted']['parent']} parent, "
              f"{summary['failed']['change']}/{summary['attempted']['change']} change")
        for metric in bench["end_to_end"]:
            s = summary[metric["name"]]
            p, c = s["parent"], s["change"]
            print(f"  {metric['name']:12s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  wins {s['wins']}/{s['pairs']}  {s['verdict']}")
        if summary["failed_share_rose"]:
            share = summary["failed_share"]
            print(f"  failed share rose: parent {share['parent']:.3g}, change {share['change']:.3g}")
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
