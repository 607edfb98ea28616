"""Spans around calls into iddlab, recorded from outside the package.

A Tracer replaces, for as long as it is installed, three kinds of callable
with timing wrappers:

  * the public module-level functions of each layer module, at every
    module attribute that names them, so that calls inside a module by
    global name and calls through ``from .x import f`` bindings are both
    caught;
  * ``SymmetricCF.evaluate/log_evaluate`` and
    ``LaplaceTransform.evaluate/log_evaluate`` on the base classes (no
    subclass overrides them);
  * ``DiscretizedMeasure.integrate_outer``.

Spans stay in memory as ``[name, start, end, parent, op, self_s, attrs]``
lists; ``parent`` is the index of the enclosing span or None.  A span's
self time is its duration minus the time its child spans cover.  Private
helpers (``inversion._cdf_values`` and friends) are invisible here, so
their time is self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from time import perf_counter

import numpy as np

LAYERS = ("cf_core", "measures", "analysis", "metrics", "laplace_core", "inversion", "cli")

# the default x grid of kolmogorov_distance / fit_stable when none is passed
_DEFAULT_X_POINTS = 401


def _points(t) -> int:
    return int(np.size(t))


def _x_points(x_grid) -> int:
    return _DEFAULT_X_POINTS if x_grid is None else int(np.size(x_grid))


def _fit_stable_attrs(a) -> dict:
    candidates = len(tuple(a["alpha_grid"])) * len(tuple(a["scale_grid"]))
    return {"candidates": candidates, "cdf_points": (candidates + 1) * _x_points(a["x_grid"])}


def _kolmogorov_attrs(a) -> dict:
    return {"cdf_points": 2 * _x_points(a["x_grid"])}


def _cdf_from_cf_attrs(a) -> dict:
    return {"cdf_points": _points(a["x"])}


# counters read from the bound call arguments of module functions, keyed by
# span name
_ARG_ATTRS = {
    "inversion.fit_stable": _fit_stable_attrs,
    "inversion.kolmogorov_distance": _kolmogorov_attrs,
    "inversion.cdf_from_cf": _cdf_from_cf_attrs,
}

# result counters, keyed by span name
_RESULT_ATTRS = {
    "metrics.lambda_r": lambda value: {"inf": int(math.isinf(value))},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []  # [span index, time covered by children]
        self._patches: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _call(self, name, attrs, fn, args, kwargs, on_result=None):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.op, 0.0, attrs]
        self.spans.append(span)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            span[1], span[2], span[5] = start, end, (end - start) - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start
        if on_result is not None:
            attrs.update(on_result(result))
        return result

    def _function_wrapper(self, name, fn):
        arg_attrs = _ARG_ATTRS.get(name)
        on_result = _RESULT_ATTRS.get(name)
        signature = inspect.signature(fn) if arg_attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if arg_attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = arg_attrs(bound.arguments)
            return self._call(name, attrs, fn, args, kwargs, on_result)

        return traced

    def _cf_method_wrapper(self, method, fn, empirical_cls):
        plain = f"cf_core.SymmetricCF.{method}"
        empirical = f"cf_core.EmpiricalCF.{method}"

        @functools.wraps(fn)
        def traced(cf, t):
            points = _points(t)
            if isinstance(cf, empirical_cls):
                attrs = {"points": points, "cos_evals": points * int(cf.samples.size)}
                return self._call(empirical, attrs, fn, (cf, t), {})
            return self._call(plain, {"points": points}, fn, (cf, t), {})

        return traced

    def _points_method_wrapper(self, name, fn, arg_index):
        @functools.wraps(fn)
        def traced(*args):
            return self._call(name, {"points": _points(args[arg_index])}, fn, args, {})

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every traced callable; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("iddlab")
        modules = [importlib.import_module(f"iddlab.{layer}") for layer in LAYERS]
        namespaces = [package] + modules
        for layer, module in zip(LAYERS, modules):
            for attribute, fn in list(vars(module).items()):
                if (
                    attribute.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._function_wrapper(f"{layer}.{attribute}", fn)
                for namespace in namespaces:
                    for bound_name, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, bound_name, wrapper)

        cf_core = importlib.import_module("iddlab.cf_core")
        laplace_core = importlib.import_module("iddlab.laplace_core")
        measures = importlib.import_module("iddlab.measures")
        for method in ("evaluate", "log_evaluate"):
            fn = getattr(cf_core.SymmetricCF, method)
            self._patch(
                cf_core.SymmetricCF, method,
                self._cf_method_wrapper(method, fn, cf_core.EmpiricalCF),
            )
            fn = getattr(laplace_core.LaplaceTransform, method)
            self._patch(
                laplace_core.LaplaceTransform, method,
                self._points_method_wrapper(f"laplace_core.LaplaceTransform.{method}", fn, 1),
            )
        fn = measures.DiscretizedMeasure.integrate_outer
        self._patch(
            measures.DiscretizedMeasure, "integrate_outer",
            self._points_method_wrapper("measures.DiscretizedMeasure.integrate_outer", fn, 2),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- export ----------------------------------------------------------

    def add_spans(self, spans, op) -> None:
        """Append spans recorded by another process for operation ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _, self_s, attrs in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, op, self_s, attrs]
            )


def totals(spans) -> dict:
    """Per span name: calls, summed self seconds and summed attributes."""
    out: dict = {}
    for name, _, _, _, _, self_s, attrs in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in attrs.items():
            entry[key] = entry.get(key, 0) + value
    return out


# per-layer metrics derived from spans: (name, unit, kind, span names);
# kind is "self_ms", "calls", an attribute name, or "inf_ratio"
LAYER_METRICS = (
    ("inversion.approx_compare.self_ms", "ms/op", "self_ms", ("inversion.approx_compare",)),
    ("inversion.fit_stable.self_ms", "ms/op", "self_ms", ("inversion.fit_stable",)),
    ("inversion.fit_stable.candidates", "count/op", "candidates", ("inversion.fit_stable",)),
    ("inversion.kolmogorov_distance.self_ms", "ms/op", "self_ms",
     ("inversion.kolmogorov_distance",)),
    ("inversion.cdf_points", "count/op", "cdf_points",
     ("inversion.cdf_from_cf", "inversion.kolmogorov_distance", "inversion.fit_stable")),
    ("inversion.cdf_from_cf.calls", "count/op", "calls", ("inversion.cdf_from_cf",)),
    ("inversion.cdf_from_cf.self_ms", "ms/op", "self_ms", ("inversion.cdf_from_cf",)),
    ("cf_core.evaluate.calls", "count/op", "calls", ("cf_core.SymmetricCF.evaluate",)),
    ("cf_core.evaluate.points", "count/op", "points", ("cf_core.SymmetricCF.evaluate",)),
    ("cf_core.evaluate.self_ms", "ms/op", "self_ms", ("cf_core.SymmetricCF.evaluate",)),
    ("cf_core.log_evaluate.calls", "count/op", "calls", ("cf_core.SymmetricCF.log_evaluate",)),
    ("cf_core.log_evaluate.points", "count/op", "points", ("cf_core.SymmetricCF.log_evaluate",)),
    ("cf_core.log_evaluate.self_ms", "ms/op", "self_ms", ("cf_core.SymmetricCF.log_evaluate",)),
    ("cf_core.empirical.self_ms", "ms/op", "self_ms",
     ("cf_core.EmpiricalCF.evaluate", "cf_core.EmpiricalCF.log_evaluate")),
    ("cf_core.empirical.cos_evals", "count/op", "cos_evals",
     ("cf_core.EmpiricalCF.evaluate", "cf_core.EmpiricalCF.log_evaluate")),
    ("measures.integrate_outer.calls", "count/op", "calls",
     ("measures.DiscretizedMeasure.integrate_outer",)),
    ("measures.integrate_outer.self_ms", "ms/op", "self_ms",
     ("measures.DiscretizedMeasure.integrate_outer",)),
    ("analysis.has_gaussian_component.self_ms", "ms/op", "self_ms",
     ("analysis.has_gaussian_component",)),
    ("analysis.limit_deviation.self_ms", "ms/op", "self_ms", ("analysis.limit_deviation",)),
    ("analysis.kurtosis_scaling_check.self_ms", "ms/op", "self_ms",
     ("analysis.kurtosis_scaling_check",)),
    ("analysis.moments.calls", "count/op", "calls", ("analysis.moments",)),
    ("metrics.lambda_r.calls", "count/op", "calls", ("metrics.lambda_r",)),
    ("metrics.lambda_r.self_ms", "ms/op", "self_ms", ("metrics.lambda_r",)),
    ("metrics.lambda_r.inf_ratio", "fraction", "inf_ratio", ("metrics.lambda_r",)),
    ("metrics.clt_bound_check.self_ms", "ms/op", "self_ms", ("metrics.clt_bound_check",)),
    ("metrics.backward_bound.self_ms", "ms/op", "self_ms", ("metrics.backward_bound",)),
    ("laplace_core.log_evaluate.points", "count/op", "points",
     ("laplace_core.LaplaceTransform.log_evaluate",)),
    ("laplace_core.log_evaluate.self_ms", "ms/op", "self_ms",
     ("laplace_core.LaplaceTransform.log_evaluate",)),
    ("laplace_core.support_touches_zero.self_ms", "ms/op", "self_ms",
     ("laplace_core.support_touches_zero",)),
    ("laplace_core.limit_deviation_L.self_ms", "ms/op", "self_ms",
     ("laplace_core.limit_deviation_L",)),
    ("cli.render_json.self_ms", "ms/op", "self_ms", ("cli.render_json",)),
    ("cli.read_samples.self_ms", "ms/op", "self_ms", ("cli.read_samples",)),
)


def layer_metrics(spans, traced_ops: int) -> dict:
    """LAYER_METRICS per traced operation, as {name: (value, unit)}."""
    by_name = totals(spans)
    out = {}
    for name, unit, kind, span_names in LAYER_METRICS:
        entries = [by_name[s] for s in span_names if s in by_name]
        if kind == "inf_ratio":
            calls = sum(e["calls"] for e in entries)
            value = sum(e.get("inf", 0) for e in entries) / calls if calls else 0.0
        else:
            key = "self_s" if kind == "self_ms" else kind
            value = sum(e.get(key, 0) for e in entries) / max(traced_ops, 1)
            if kind == "self_ms":
                value *= 1e3
        out[name] = (value, unit)
    return out
