"""The package surface is the union of the layer modules' __all__ lists.

Each public name is declared once, in the module that defines it, and
iddlab re-exports it from there; these checks catch a public function
or class that was never added to its module's __all__.  A family's
description is likewise read from its fields.  A malformed scalar or
config object ends in a typed error.  The package imports nothing beyond
the standard library and numpy.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

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


MEASURE = iddlab.DiscretizedMeasure(atom_positions=[1.0], atom_masses=[0.5],
                                    density_grid=[0.5, 1.5], density_values=[1.0, 1.0])


@pytest.mark.parametrize("law, expected", [
    (iddlab.CanonicalCF(0.25, MEASURE),
     {"kind": "canonical", "gaussian_coefficient": 0.25, "atoms": [[1.0, 0.5]],
      "density_points": 2}),
    (iddlab.CanonicalLaplace(0.25, MEASURE),
     {"kind": "canonical", "sigma": 0.25, "atoms": [[1.0, 0.5]], "density_points": 2}),
    (iddlab.root_rescale(iddlab.SymmetrizedGammaCF(0.5), 4),
     {"kind": "root_rescale", "m": 4, "base": {"kind": "symgamma", "shape": 0.5}}),
    (iddlab.root_rescale_L(iddlab.GammaSubordinator(0.5), 4),
     {"kind": "root_rescale", "m": 4, "base": {"kind": "gammasub", "shape": 0.5}}),
    (iddlab.sum_rescale(iddlab.SymmetrizedGammaCF(0.5), 4),
     {"kind": "sum_rescale", "m": 4, "base": {"kind": "symgamma", "shape": 0.5}}),
], ids=["canonical", "canonical_laplace", "root_rescale", "root_rescale_L", "sum_rescale"])
def test_composite_law_describes_its_parts(law, expected):
    assert law.describe() == expected


GAUSS = iddlab.GaussianCF(1.0)


@pytest.mark.parametrize("call, error, name", [
    (lambda: iddlab.GaussianCF("abc"), iddlab.InputError, "variance"),
    (lambda: iddlab.scale_argument(GAUSS, "x"), iddlab.InputError, "factor"),
    (lambda: iddlab.clt_bound_check(GAUSS, 2, "x"), iddlab.InputError, "r"),
    (lambda: iddlab.GaussianCF(None), iddlab.InputError, "variance"),
    (lambda: iddlab.StableCF(1.5, 1j), iddlab.InputError, "scale"),
    (lambda: iddlab.StableCF(None, 1.0), iddlab.InputError, "alpha"),
    (lambda: iddlab.has_gaussian_component(GAUSS, tol=None), iddlab.InputError, "tol"),
    (lambda: iddlab.limit_deviation(GAUSS, 2, None), iddlab.InputError, "T"),
    (lambda: iddlab.lambda_r(GAUSS, GAUSS, None), iddlab.ConfigError, "config"),
    (lambda: iddlab.clt_bound_check(GAUSS, 2, 3.0, config={"r": 3.0}), iddlab.ConfigError,
     "config"),
    (lambda: iddlab.approx_compare(GAUSS, 2, quad=5), iddlab.ConfigError, "quad"),
    (lambda: iddlab.cdf_from_cf(GAUSS, 0.0, quad=4096), iddlab.ConfigError, "quad"),
    (lambda: iddlab.cdf_from_cf(GAUSS, "a"), iddlab.InputError, "x"),
    (lambda: iddlab.EmpiricalCF("abc"), iddlab.InputError, "samples"),
    (lambda: iddlab.EmpiricalCF([object()]), iddlab.InputError, "samples"),
    (lambda: iddlab.has_gaussian_component(GAUSS, t_schedule="abc"), iddlab.InputError,
     "t_schedule"),
    (lambda: iddlab.estimate_drift(iddlab.DriftTransform(1.0), s_schedule="abc"),
     iddlab.InputError, "s_schedule"),
    (lambda: iddlab.kolmogorov_distance(GAUSS, GAUSS, x_grid="a"), iddlab.InputError, "x_grid"),
    (lambda: iddlab.fit_stable(GAUSS, x_grid="a"), iddlab.InputError, "x_grid"),
    (lambda: iddlab.remainder_profile(GAUSS, 0.5, "abc"), iddlab.InputError, "t_grid"),
    (lambda: iddlab.lambda_r(GAUSS, "abc", iddlab.LambdaConfig(r=3.0)), iddlab.InputError,
     "cf_v"),
    (lambda: iddlab.clt_bound_check(None, 2, 3.0), iddlab.InputError, "cf"),
    (lambda: iddlab.backward_bound(1.0, 2, 3.0), iddlab.InputError, "cf"),
    (lambda: GAUSS.evaluate("a"), iddlab.InputError, "x"),
    (lambda: GAUSS.log_evaluate([object()]), iddlab.InputError, "x"),
    (lambda: iddlab.DriftTransform(1.0).evaluate("a"), iddlab.InputError, "x"),
], ids=["text-variance", "text-factor", "text-r", "none-variance", "complex-scale",
        "none-alpha", "none-tol", "none-T", "none-config", "dict-config", "int-quad",
        "int-quad-pointwise", "text-x", "text-samples", "object-samples", "text-t-schedule",
        "text-s-schedule", "text-x-grid", "text-fit-x-grid", "text-t-grid", "text-law",
        "none-law", "number-law", "text-evaluate", "object-log-evaluate",
        "text-laplace-evaluate"])
def test_malformed_scalar_or_config_is_a_typed_error(call, error, name):
    with pytest.raises(error, match=f"^{name} must be a"):
        call()


@pytest.mark.parametrize("call, error, name", [
    (lambda: iddlab.GaussianCF(10**400), iddlab.InputError, "variance"),
    (lambda: iddlab.sum_rescale(GAUSS, 10**400), iddlab.InputError, "m"),
    (lambda: iddlab.QuadratureSpec(N=10**400), iddlab.ConfigError, "node budget N"),
    (lambda: iddlab.LambdaConfig(r=10**400), iddlab.ConfigError, "r"),
    # a float-sized integer passes the number check and fails the range
    (lambda: iddlab.QuadratureSpec(N=10**300), iddlab.ConfigError, "node budget N"),
], ids=["variance", "m", "budget", "r", "budget-range"])
def test_refusal_quotes_a_huge_value_in_one_short_line(call, error, name):
    # the full repr of 10**400 made these messages over 420 characters
    with pytest.raises(error, match=f"^{name} must ") as refused:
        call()
    assert len(str(refused.value)) < 120 and "..." in str(refused.value)


def test_numeric_text_is_still_read_as_a_number():
    assert iddlab.GaussianCF("2").variance == 2.0
    assert iddlab.clt_bound_check(GAUSS, 2, "3").r == 3.0
    assert iddlab.lambda_r(GAUSS, GAUSS, iddlab.LambdaConfig(r="3")) == 0.0
    # integer arguments stay integers: text is refused there as before
    with pytest.raises(iddlab.InputError, match="m must be"):
        iddlab.clt_bound_check(GAUSS, "3", 3.0)


# test extras: installed beside the package, never imported by it
EXTRAS = ("scipy", "mpmath", "hypothesis")


def test_cli_import_loads_only_stdlib_and_numpy():
    code = ("import sys; before = set(sys.modules); import iddlab.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    loaded = set(subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True).stdout.split())
    assert loaded.isdisjoint(EXTRAS)
    assert loaded - set(sys.stdlib_module_names) <= {"iddlab", "numpy"}


def test_package_sources_import_only_stdlib_and_numpy():
    # also catches an import inside a function, which a cold import never runs
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in Path(iddlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert {n.split(".")[0] for n in names} <= allowed, (path.name, names)
