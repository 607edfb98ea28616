"""The iddlab benchmark: one seeded workload, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/iddlab``.  The run

  1. starts three fresh processes that each do only the set-up (import,
     input generation from the seed, warm-up) and reports their median as
     ``setup_s``;
  2. sets the workload up in this process and runs its operations one at a
     time, a closed loop with one client, until ``--seconds`` have passed
     and at least the workload's minimum number of operations has run;
  3. checks every output as it arrives (outside the timed call), requires
     repeated operations to repeat byte for byte, and feeds the checker one
     deliberately wrong output per operation, which it must reject;
  4. runs each of the workload's known-defect probes once, untimed and not
     counted as an operation, and says whether the defect still shows;
  5. prints an environment record and one line per metric, and as its last
     line a JSON object with ``correct``, ``attempted``, ``failed`` and
     ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
operations alternate in blocks between untraced and traced; the traced
blocks give the per-layer metrics and the ratio of traced to untraced
throughput is reported as ``trace.overhead``.  Spans, durations and the
environment go to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
# one BLAS thread on every run and in every child: the same setting on both
# sides of a comparison, and no contention with the second core
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Record:
    op: object
    traced: bool
    seconds: float
    problem: str | None


class Raised:
    """Output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"raised {type(exc).__name__}: {exc}"

    def __repr__(self):
        return self.text


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe_setup(args) -> float:
    """Seconds from starting a fresh set-up-only process to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready - start


def _run_loop(workload, seconds, trace, tracer):
    ops = workload.ops()
    # a traced run needs at least one untraced and one traced block
    least = max(workload.min_ops, 2 * workload.trace_block if trace else 0)
    records, first = [], {}
    n, start = 0, perf_counter()
    while n < least or perf_counter() - start < seconds:
        op = ops[n % len(ops)]
        traced = bool(trace) and (n // workload.trace_block) % 2 == 1
        if traced and workload.in_process:
            tracer.op = n
            tracer.install()
        t0 = perf_counter()
        try:
            output = op.run(traced)
        except Exception as exc:  # an operation that raises is a failed operation
            output = Raised(exc)
        t1 = perf_counter()
        if traced and workload.in_process:
            tracer.uninstall()
        if traced and not workload.in_process and getattr(output, "trace", None):
            tracer.add_spans(output.trace["spans"], n)
        records.append(Record(op, traced, t1 - t0, _judge(op, output, first)))
        workload.observe(output, traced)
        n += 1
    return records, first


def _judge(op, output, first):
    """The problem with one output, or None.

    first maps an op label to (fingerprint, op, output) of its first correct run.
    """
    if isinstance(output, Raised):
        return output.text
    try:
        problem = op.check(output)
        fingerprint = op.fingerprint(output)
    except Exception as exc:  # an output the check cannot read is a wrong output
        return f"check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        return problem
    if op.label not in first:
        first[op.label] = (fingerprint, op, output)
    elif first[op.label][0] != fingerprint:
        return "differs from an earlier run of the same operation"
    return None


def _accepts_perturbed(op, output) -> bool:
    try:
        return op.check(op.perturb(output)) is None
    except Exception:  # a check that raises has rejected the output
        return False


def _self_check(first):
    """Labels whose check accepted a deliberately wrong output (must be empty)."""
    return [label for label, (_, op, output) in first.items()
            if _accepts_perturbed(op, output)]


def _known_defects(workload):
    """(label, problem) for each known-defect probe; problem None once fixed."""
    found = []
    for op in workload.known_defects():
        try:
            output = op.run(False)
        except Exception as exc:
            output = Raised(exc)
        found.append((op.label, _judge(op, output, {})))
    return found


def _environment():
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "iddlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no iddlab package under {SRC}; run inside a checkout\n")
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workload.setup(args.seed, Path(tmp))
            print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload.setup(args.seed, Path(tmp))
        records, first = _run_loop(workload, args.seconds, args.trace, tracer)
        blind = _self_check(first)
        defects = _known_defects(workload)
        extra_layers = workload.layer_metrics(records) if args.trace else {}

    attempted = len(records)
    failed = sum(r.problem is not None for r in records)
    untraced = [r.seconds for r in records if not r.traced]
    traced = [r.seconds for r in records if r.traced]
    env = _environment()
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        for name, unit in workloads.CLI_LAYER_METRICS:
            metrics[name] = extra_layers.get(name, (0.0, unit))
        overhead = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
        metrics["trace.overhead"] = (overhead, "ratio")
        env["trace_overhead"] = overhead
    else:
        durations = [r.seconds for r in records]
        percentiles = statistics.quantiles(durations, n=100, method="inclusive")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (attempted / sum(durations), "1/s"),
            "p50_ms": (percentiles[49] * 1e3, "ms"),
            "p90_ms": (percentiles[89] * 1e3, "ms"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }

    problems: dict = {}
    for r in records:
        if r.problem is not None:
            key = f"{r.op.label}: {r.problem}"
            problems[key] = problems.get(key, 0) + 1

    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "setup_s": setup_times,
            "operations": [[r.op.label, r.traced, r.seconds, r.problem] for r in records],
            "problems": problems, "self_check_blind": blind, "known_defects": defects,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "spans": tracer.spans,
        }, fh)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    print("environment " + json.dumps(env))
    for key, count in problems.items():
        print(f"FAILED x{count} {key}")
    for label in blind:
        print(f"SELF-CHECK: the check of {label} accepted a perturbed output")
    for label, problem in defects:
        if problem is None:
            print(f"known defect no longer shows: {label}")
        else:
            print(f"KNOWN DEFECT {label}: {problem}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("p50_ms", "p90_ms"):
            note = f"  (n={attempted}{', fewer than 100' if attempted < 100 else ''})"
        print(f"{name} {value!r} {unit}{note}")
    print(f"fail_ratio {failed / attempted!r} fraction")
    print(json.dumps({
        "correct": failed == 0 and not blind and bool(first),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
