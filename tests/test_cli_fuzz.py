"""Fuzzing the CLI in-process: every input ends in a report or an iddlab: error.

Each example starts from a small valid invocation of one subcommand and
appends one or two of its knobs (flags from the option table) and at
most one other flag (a family flag, a switch, --config, --input or
--output), each with a value from a small fixed pool.  No pool value
is a large size, so no draw can allocate big arrays.
"""

import contextlib
import io
import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iddlab.cli as cli

SAMPLES = "samples.txt"
CONFIG = "config.json"

NUMBERS = ["0", "-1", "2.5", "nan", "inf", "-inf", "abc", "1", "3", "1e-3"]
TEXTS = [
    "abc", "0", "1,2", "0.1,1,10", "1e4,1e6,1e8", "0:1:3", "1:2", "1.5:1.5:1", "-1:1:1",
    "gauss:variance=-1", "gauss:variance=1", "nosuch:x=1", "stable:alpha=3,scale=1",
    "gammasub:shape=0", "drift:sigma=nan",
]
PATHS = [SAMPLES, "missing.txt", "missing/out.json", "out.json"]
CONFIG_VALUES = [0, -1, 1, 2.5, float("nan"), "abc", "1,2", "1e4,1e6,1e8", [1], {}, None, True]

BASE = {
    "detect": ["detect", "--family", "symgamma", "--shape", "1"],
    "rescale": ["rescale", "--family", "symgamma", "--shape", "1", "--m", "2",
                "--points", "5"],
    "kurtosis": ["kurtosis", "--family", "symgamma", "--shape", "1", "--m", "2"],
    "distance": ["distance", "--family", "symgamma", "--shape", "1", "--r", "3",
                 "--grid-size", "64"],
    "bound-check": ["bound-check", "--family", "symgamma", "--shape", "1", "--m", "2",
                    "--r", "3", "--grid-size", "64"],
    "laplace drift": ["laplace", "drift", "--family", "gammasub", "--shape", "1"],
    "laplace support": ["laplace", "support", "--family", "gammasub", "--shape", "1"],
    "laplace limit": ["laplace", "limit", "--family", "gammasub", "--shape", "1",
                      "--m", "2", "--grid-size", "16"],
    "approx-compare": ["approx-compare", "--family", "gauss", "--variance", "1", "--m", "2",
                       "--alpha-grid", "1.5:1.5:1", "--scale-grid", "1:1:1",
                       "--quad-n", "512"],
    "empirical": ["empirical", "--input", SAMPLES, "--cf-points", "5"],
}


def _flags(name):
    """(knobs, other flags, config keys) of a subcommand.

    Flags come as (flag, value pool) pairs, with pool None for a switch
    or --config; of the family parameters only those of the base law
    are drawn, so most draws reach the knob they change.
    """
    _, _, families, options = cli._COMMANDS[name]
    knobs = [
        (cli._flag(key), NUMBERS if conv in (cli._integer, cli._number) else TEXTS)
        for key, conv, *_ in options if conv is not cli._switch
    ]
    switches = [cli._flag(key) for key, conv, *_ in options if conv is cli._switch]
    others = [("--config", None), ("--output", PATHS)]
    if families is not None:
        others += [("--family", TEXTS), ("--convolve", TEXTS)]
        params = {f"--{p}" for names, _ in families.values() for p in names}
        others += [(flag, NUMBERS) for flag in BASE[name] if flag in params]
    if name in ("detect", "empirical"):
        others.append(("--input", PATHS))
    others += [(flag, None) for flag in switches]
    return knobs, others, [key for key, *_ in options]


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(BASE)))
    knobs, others, keys = _flags(name)
    argv = list(BASE[name])
    config = None
    flags = draw(st.lists(st.sampled_from(knobs), min_size=1, max_size=2,
                              unique_by=lambda pair: pair[0]))
    flags += draw(st.lists(st.sampled_from(others), max_size=1))
    for flag, pool in flags:
        if flag == "--config":
            config = draw(st.dictionaries(st.sampled_from(keys + ["bogus"]),
                                          st.sampled_from(CONFIG_VALUES), max_size=2))
            argv += [flag, CONFIG]
        elif pool is None:
            argv.append(flag)
        else:
            argv += [flag, draw(st.sampled_from(pool))]
    return argv, config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / SAMPLES).write_text("# pm\n1.0\n-1.0\n0.5\n-0.25\n")
    return directory


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=invocations())
def test_cli_never_raises(workdir, case):
    argv, config = case
    here = os.getcwd()
    os.chdir(workdir)
    try:
        if config is not None:
            (workdir / CONFIG).write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1, 2, 3), (argv, config)
    if code != 0:
        assert err.getvalue().startswith("iddlab:"), (argv, config, err.getvalue())
