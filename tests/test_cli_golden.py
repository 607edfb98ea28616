"""Golden CLI payloads: every case must reproduce its file byte for byte.

The cases and the payload cut live in tools/make_goldens.py, which also
rewrites the files under tests/golden/cli when a change to a payload is
intended.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_goldens.py"
_spec = importlib.util.spec_from_file_location("make_goldens", _TOOL)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    goldens.write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_payload_matches_golden(name, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    expected = (goldens.GOLDEN_DIR / f"{name}.txt").read_text()
    assert goldens.payload(goldens.CASES[name]) == expected


def test_check_names_every_moved_number():
    old = ('{\n  "result": {"d": 0.5, "grid": [1, 2.5, 3], "verdict": "tie", "ok": true,\n'
           '    "q": {"N": 1024, "error": 1e-09}},\n  "diagnostics": {}\n')
    new = ('{\n  "result": {"d": 0.25, "grid": [1, 2.5, 4], "verdict": "stable closer",'
           ' "ok": false,\n    "q": {"N": 2048, "error": 1e-09, "extra": 7}},\n'
           '  "diagnostics": {}\n')
    assert goldens.moved_numbers(old, new) == [
        "result.d: 0.5 -> 0.25 (change -0.25)",
        "result.grid[2]: 3 -> 4 (change +1)",
        "result.q.N: 1024 -> 2048 (change +1.02e+03)",
    ]
    assert goldens.moved_numbers(old, old) == []
    # a golden file that does not exist yet reads as empty text
    assert goldens.moved_numbers("", new) == []
