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
