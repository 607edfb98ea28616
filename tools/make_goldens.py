#!/usr/bin/env python3
"""Regenerate the golden CLI payloads checked by tests/test_cli_golden.py.

Each case runs ``iddlab.cli.main`` in-process and keeps the report as
printed, minus its trailing ``meta`` block (the only part that carries a
timestamp).  What remains, ``schema``, ``command``, ``config``,
``result`` and ``diagnostics``, must stay byte-identical across runs and
across refactors; the test compares it byte for byte.

Cases that read samples run in a scratch directory holding
``samples.txt`` (seeded draws from N(0, 0.02)), so the path recorded in
``config`` is the same relative name everywhere.

    PYTHONPATH=src python tools/make_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli"
SAMPLE_FILE = "samples.txt"
CONFIG_FILE = "config.json"

# name -> argv; the readme-* cases are the invocations shown in README.md
CASES = {
    "readme-detect": ["detect", "--family", "gauss", "--variance", "1.4",
                      "--convolve", "cpoisson:rate=3,jump=1"],
    "readme-distance": ["distance", "--family", "symgamma", "--shape", "1", "--r", "3"],
    "readme-bound-check": ["bound-check", "--family", "symgamma", "--shape", "1",
                           "--m", "4", "--r", "3", "--assert"],
    "readme-laplace-support": ["laplace", "support", "--family", "drift", "--sigma", "0.5",
                               "--convolve", "gammasub:shape=1"],
    "readme-approx-compare": ["approx-compare", "--family", "symgamma", "--shape", "0.5",
                              "--m", "10"],
    "readme-detect-input": ["detect", "--input", SAMPLE_FILE,
                            "--schedule", "0.1,0.5,1,2,5,10", "--tol", "0.001"],
    "readme-laplace-support-schedule": ["laplace", "support", "--family", "stablesub",
                                        "--alpha", "0.5", "--scale", "1",
                                        "--schedule", "1e4,1e6,1e8"],
    "rescale-sum": ["rescale", "--family", "symgamma", "--shape", "1", "--m", "4",
                    "--transform", "sum", "--points", "11"],
    "rescale-fixed-point": ["rescale", "--family", "gauss", "--variance", "2", "--m", "5",
                            "--points", "7", "--check-fixed-point"],
    "kurtosis-config": ["kurtosis", "--family", "symgamma", "--shape", "1",
                        "--config", CONFIG_FILE, "--method", "finite-difference"],
    "distance-inf": ["distance", "--family", "gauss", "--variance", "1",
                     "--vs", "gauss:variance=4", "--r", "3"],
    "bound-check-backward": ["bound-check", "--family", "symgamma", "--shape", "1",
                             "--m", "4", "--r", "3", "--backward"],
    "laplace-drift": ["laplace", "drift", "--family", "drift", "--sigma", "2",
                      "--convolve", "gammasub:shape=1"],
    "laplace-limit": ["laplace", "limit", "--family", "gammasub", "--shape", "1",
                      "--m", "100", "--S", "10"],
    "laplace-limit-known-sigma": ["laplace", "limit", "--family", "gammasub", "--shape", "1",
                                  "--convolve", "drift:sigma=2", "--m", "100", "--S", "10",
                                  "--known-sigma", "2"],
    "empirical-input": ["empirical", "--input", SAMPLE_FILE, "--cf-points", "11"],
    "approx-compare-wide-grid": ["approx-compare", "--family", "symgamma", "--shape", "1",
                                 "--m", "4", "--alpha-grid", "0.5:2.0:7",
                                 "--scale-grid", "0.3:3:5"],
}


def write_inputs(directory: Path) -> None:
    """The sample and config files the cases refer to by relative name."""
    draws = np.random.default_rng(20260819).normal(0.0, np.sqrt(0.02), 2000)
    (directory / SAMPLE_FILE).write_text("".join(f"{x!r}\n" for x in draws.tolist()))
    (directory / CONFIG_FILE).write_text('{"m": 9, "method": "closed-form"}\n')


def payload(argv) -> str:
    """The report of one in-process run, cut before its meta block."""
    from iddlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    text = out.getvalue()
    head, sep, _ = text.partition(',\n  "meta": ')
    if not sep:
        raise RuntimeError(f"{argv} printed no meta block")
    return head + "\n"


def main() -> int:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            texts = {name: payload(args) for name, args in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
