"""The oracle constants frozen in the test modules are the values that
tools/make_oracles.py prints, digit for digit."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "make_oracles.py"
_LITERAL = re.compile(r"^((?:L3|KS)_\w+) = (\S+)", re.MULTILINE)


@pytest.fixture(scope="module")
def printed():
    spec = importlib.util.spec_from_file_location("make_oracles", _TOOL)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        oracles.main()
    return dict(_LITERAL.findall(out.getvalue()))


@pytest.mark.parametrize("module", ["test_metrics.py", "test_acceptance.py",
                                    "test_inversion.py"])
def test_frozen_literals_are_the_printed_values(module, printed):
    frozen = _LITERAL.findall((_ROOT / "tests" / module).read_text())
    assert frozen
    for name, value in frozen:
        assert value == printed[name], name
