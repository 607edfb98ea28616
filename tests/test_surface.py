"""The package surface is the union of the layer modules' __all__ lists.

Each public name is declared once, in the module that defines it, and
iddlab re-exports it from there; these checks catch a public function
or class that was never added to its module's __all__.  A family's
description is likewise read from its fields.
"""

import importlib
import inspect
from dataclasses import fields
from fractions import Fraction

import pytest

import iddlab
from iddlab.cli import _CF_FAMILIES, _LT_FAMILIES

LAYERS = ["errors", "measures", "cf_core", "analysis", "metrics", "laplace_core", "inversion"]


@pytest.mark.parametrize("layer", LAYERS)
def test_module_lists_every_public_definition(layer):
    module = importlib.import_module(f"iddlab.{layer}")
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


@pytest.mark.parametrize("layer", LAYERS)
def test_package_exports_module_surface(layer):
    module = importlib.import_module(f"iddlab.{layer}")
    for name in module.__all__:
        assert getattr(iddlab, name) is getattr(module, name), name


def test_package_surface_has_no_duplicates():
    assert len(iddlab.__all__) == len(set(iddlab.__all__))


FAMILIES = {**_CF_FAMILIES, **_LT_FAMILIES}
# describe()'s kind for each CLI family
KINDS = {
    "gauss": "gaussian", "stable": "stable", "symgamma": "symgamma", "cpoisson": "cpoisson",
    "gammasub": "gammasub", "poissonsub": "poissonsub", "stablesub": "stablesub",
    "drift": "drift",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_describes_its_fields(family):
    _, cls = FAMILIES[family]
    names = [f.name for f in fields(cls)]
    # distinct exact values in (0, 1), valid for every parameter; the
    # field checks normalize them to floats
    described = cls(*(Fraction(i + 1, 4) for i in range(len(names)))).describe()
    expected = [("kind", KINDS[family])] + [(n, (i + 1) / 4) for i, n in enumerate(names)]
    assert list(described.items()) == expected
    assert all(type(described[n]) is float for n in names)
