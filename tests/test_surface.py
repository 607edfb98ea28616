"""The package surface is the union of the layer modules' __all__ lists.

Each public name is declared once, in the module that defines it, and
iddlab re-exports it from there; these checks catch a public function
or class that was never added to its module's __all__.
"""

import importlib
import inspect

import pytest

import iddlab

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
