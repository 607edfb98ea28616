"""Command line front end.

Each subcommand is a thin adapter over one library operation and emits
a single JSON report:

    {"schema": "iddlab-report/1", "command": ..., "config": ...,
     "result": ..., "diagnostics": ..., "meta": ...}

All floating point values are serialized with 17 significant digits,
enough to round-trip doubles exactly, so identical runs produce
byte-identical result payloads.  Non-finite values, which JSON cannot
carry as numbers, appear as the strings "inf", "-inf" and "nan".  The
timestamp lives only under "meta".

Exit codes: 0 success, 1 input or usage problems, 2 numerical
failures, 3 a bound check that failed under --assert.

Numeric knobs may also come from a JSON file via --config; explicit
flags override file values.  Families are described on the command
line: --family picks the base law and its parameters, and repeated
--convolve FAMILY:key=value,... flags convolve further components in.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    estimate_gaussian_coefficient,
    has_gaussian_component,
    kurtosis_scaling_check,
    limit_deviation,
    moments,
    remainder_profile,
)
from .cf_core import (
    CompoundPoissonCF,
    GaussianCF,
    StableCF,
    SymmetricCF,
    SymmetrizedGammaCF,
    convolve,
    from_samples,
    root_rescale,
    sum_rescale,
)
from .errors import (
    ConfigError,
    IddlabError,
    InputError,
    MomentError,
    PositivityError,
    QuadratureError,
)
from .inversion import QuadratureSpec, approx_compare
from .laplace_core import (
    DriftTransform,
    GammaSubordinator,
    LaplaceTransform,
    PoissonSubordinator,
    StableSubordinator,
    convolve_L,
    estimate_drift,
    limit_deviation_L,
    support_touches_zero,
)
from .metrics import LambdaConfig, backward_bound, clt_bound_check, lambda_r

SCHEMA = "iddlab-report/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_ASSERT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route usage problems
    # to exit code 1 instead
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# JSON serialization with fixed float formatting


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in seq]
        if all(len(r) <= 24 and "\n" not in r for r in rendered) and len(seq) <= 8:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# family mini-language


_CF_FAMILIES = {
    "gauss": (("variance",), lambda p: GaussianCF(p["variance"])),
    "stable": (("alpha", "scale"), lambda p: StableCF(p["alpha"], p["scale"])),
    "symgamma": (("shape",), lambda p: SymmetrizedGammaCF(p["shape"])),
    "cpoisson": (("rate", "jump"), lambda p: CompoundPoissonCF(p["rate"], p["jump"])),
}

_LT_FAMILIES = {
    "gammasub": (("shape",), lambda p: GammaSubordinator(p["shape"])),
    "poissonsub": (("rate",), lambda p: PoissonSubordinator(p["rate"])),
    "stablesub": (("alpha", "scale"), lambda p: StableSubordinator(p["alpha"], p["scale"])),
    "drift": (("sigma",), lambda p: DriftTransform(p["sigma"])),
}


def _build_family(kind: str, params: dict, table: dict):
    if kind not in table:
        raise InputError(
            f"unknown family {kind!r}; choose from {', '.join(sorted(table))}"
        )
    names, builder = table[kind]
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise InputError(f"family {kind!r} needs --{missing[0].replace('_', '-')}")
    extra = [n for n, v in params.items() if v is not None and n not in names]
    if extra:
        raise InputError(f"parameter {extra[0]!r} does not belong to family {kind!r}")
    return builder({n: float(params[n]) for n in names})


def _parse_inline_spec(spec: str, table: dict):
    """Parse 'family:key=value,key=value' used by --convolve and --vs."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    params: dict = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise InputError(f"bad parameter {item!r} in spec {spec!r}")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise InputError(f"bad numeric value {val!r} in spec {spec!r}") from None
    if kind not in table:
        raise InputError(
            f"unknown family {kind!r} in spec {spec!r}; "
            f"choose from {', '.join(sorted(table))}"
        )
    names, _ = table[kind]
    full = {n: params.get(n) for n in names}
    full.update({k: v for k, v in params.items() if k not in names})
    return _build_family(kind, full, table)


def read_samples(path: str) -> list:
    """One number per line; blank lines and '#' comments are skipped."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise InputError(
                        f"{path}: line {lineno}: cannot parse {text!r} as a number"
                    ) from None
    except OSError as exc:
        raise InputError(f"cannot read sample file {path}: {exc}") from None
    if not values:
        raise InputError(f"{path}: no samples found")
    return values


def _cf_from_args(args) -> tuple[SymmetricCF, dict]:
    """Base family (or sample file) plus any --convolve components."""
    if getattr(args, "input", None):
        base: SymmetricCF = from_samples(read_samples(args.input))
    elif args.family:
        params = {
            "variance": args.variance,
            "alpha": args.alpha,
            "scale": args.scale,
            "shape": args.shape,
            "rate": args.rate,
            "jump": args.jump,
        }
        base = _build_family(args.family, params, _CF_FAMILIES)
    else:
        raise InputError("specify --family (or --input for sample data)")
    parts = [base]
    for spec in args.convolve or []:
        parts.append(_parse_inline_spec(spec, _CF_FAMILIES))
    cf = convolve(*parts) if len(parts) > 1 else base
    return cf, cf.describe()


def _lt_from_args(args) -> tuple[LaplaceTransform, dict]:
    if not args.family:
        raise InputError("specify --family")
    params = {
        "shape": args.shape,
        "rate": args.rate,
        "alpha": args.alpha,
        "scale": args.scale,
        "sigma": args.sigma,
    }
    base = _build_family(args.family, params, _LT_FAMILIES)
    parts = [base]
    for spec in args.convolve or []:
        parts.append(_parse_inline_spec(spec, _LT_FAMILIES))
    lt = convolve_L(*parts) if len(parts) > 1 else base
    return lt, lt.describe()


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse {text!r} as comma-separated numbers") from None


def _parse_grid(text: str, spacing: str) -> tuple:
    """start:stop:count grids, linear or logarithmic."""
    bits = text.split(":")
    if len(bits) != 3:
        raise InputError(f"grid spec {text!r} must be start:stop:count")
    try:
        start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
    except ValueError:
        raise InputError(f"cannot parse grid spec {text!r}") from None
    if count < 1:
        raise InputError("grid count must be positive")
    if spacing == "log" and not (start > 0.0 and stop > 0.0):
        raise InputError(f"log-spaced grid {text!r} needs positive start and stop")
    if count == 1:
        return (start,)
    if spacing == "log":
        return tuple(np.geomspace(start, stop, count))
    return tuple(np.round(np.linspace(start, stop, count), 12))


# ---------------------------------------------------------------------------
# config merging


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _merge_config(defaults: dict, args) -> dict:
    """defaults < config file < explicit flags, with unknown keys rejected."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} for this command")
    merged = dict(defaults)
    for key, value in file_cfg.items():
        if isinstance(defaults[key], bool):
            merged[key] = bool(value)
        else:
            merged[key] = value
    for key in defaults:
        cli_val = getattr(args, key, None)
        if isinstance(defaults[key], bool):
            if cli_val:
                merged[key] = True
        elif cli_val is not None:
            merged[key] = cli_val
    return merged


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (config, result, diagnostics, exit_code)


def _profile_grid(t_used: float) -> np.ndarray:
    return np.geomspace(0.1, t_used, 101)


def _cmd_detect(args):
    cf, family_desc = _cf_from_args(args)
    cfg = _merge_config({"tol": 1e-4, "schedule": "default"}, args)
    schedule = (
        _parse_floats(cfg["schedule"])
        if cfg["schedule"] != "default"
        else None
    )
    from .analysis import DEFAULT_T_SCHEDULE

    sched = schedule or DEFAULT_T_SCHEDULE
    decision = has_gaussian_component(cf, float(cfg["tol"]), sched)
    est = decision.estimate
    a_used = est.a_hat if decision.has_component else 0.0
    profile = remainder_profile(cf, a_used, _profile_grid(est.t_used))
    config = {"family": family_desc, "tol": float(cfg["tol"]), "schedule": list(sched)}
    result = {
        "has_gaussian_component": decision.has_component,
        "a_hat": est.a_hat,
        "component_variance": est.component_variance,
        "error_bound": est.error_bound,
        "t_used": est.t_used,
        "schedule_values": [[t, v] for t, v in zip(est.schedule, est.values)],
        "remainder_profile": [[t, r] for t, r in profile],
    }
    diagnostics = {
        "monotone_decreasing": est.monotone_decreasing,
        "decision_margin": est.a_hat - float(cfg["tol"]) - est.error_bound,
        "a_used_for_profile": a_used,
    }
    return config, result, diagnostics, EXIT_OK


def _cmd_rescale(args):
    cf, family_desc = _cf_from_args(args)
    cfg = _merge_config(
        {"m": None, "transform": "root", "t_max": 10.0, "points": 201,
         "check_fixed_point": False},
        args,
    )
    if cfg["m"] is None:
        raise InputError("--m is required")
    m = int(cfg["m"])
    transform = str(cfg["transform"])
    if transform == "root":
        rescaled = root_rescale(cf, m)
    elif transform == "sum":
        rescaled = sum_rescale(cf, m)
    else:
        raise InputError(f"unknown transform {transform!r}; use root or sum")
    t_max = float(cfg["t_max"])
    grid = np.linspace(-t_max, t_max, int(cfg["points"]))
    base_vals = cf.evaluate(grid)
    new_vals = rescaled.evaluate(grid)
    deviation = float(np.max(np.abs(new_vals - base_vals)))
    config = {
        "family": family_desc, "m": m, "transform": transform,
        "t_max": t_max, "points": int(cfg["points"]),
        "check_fixed_point": bool(cfg["check_fixed_point"]),
    }
    result = {
        "m": m,
        "transform": transform,
        "sup_abs_difference": deviation,
        "t": [float(t) for t in grid],
        "rescaled_values": [float(v) for v in new_vals],
        "base_values": [float(v) for v in base_vals],
    }
    if bool(cfg["check_fixed_point"]):
        result["fixed_point"] = {
            "deviation": deviation,
            "is_fixed_point": bool(deviation < 1e-12),
        }
    return config, result, {}, EXIT_OK


def _cmd_kurtosis(args):
    cf, family_desc = _cf_from_args(args)
    cfg = _merge_config({"m": None, "method": "closed-form"}, args)
    if cfg["m"] is None:
        raise InputError("--m is required")
    m = int(cfg["m"])
    check = kurtosis_scaling_check(cf, m, str(cfg["method"]))
    base = moments(cf, str(cfg["method"]))
    resc = moments(root_rescale(cf, m), str(cfg["method"]))
    config = {"family": family_desc, "m": m, "method": str(cfg["method"])}
    result = {
        "m": m,
        "kappa_1": check.kappa_1,
        "kappa_m": check.kappa_m,
        "expected_m_times_kappa_1": check.expected,
        "relative_error": check.relative_error,
        "base_moments": {"mu2": base.mu2, "mu4": base.mu4, "kappa": base.kappa},
        "rescaled_moments": {"mu2": resc.mu2, "mu4": resc.mu4, "kappa": resc.kappa},
    }
    return config, result, {}, EXIT_OK


def _cmd_distance(args):
    cf, family_desc = _cf_from_args(args)
    cfg = _merge_config(
        {"r": None, "vs": None, "t_min": 1e-3, "t_max": 50.0,
         "grid_size": 4096, "small_t_policy": "taylor-bound"},
        args,
    )
    if cfg["r"] is None:
        raise InputError("--r is required")
    if cfg["vs"]:
        other = _parse_inline_spec(str(cfg["vs"]), _CF_FAMILIES)
    else:
        other = GaussianCF(moments(cf).mu2)
    lam_cfg = LambdaConfig(
        r=float(cfg["r"]),
        t_min=float(cfg["t_min"]),
        t_max=float(cfg["t_max"]),
        grid_size=int(cfg["grid_size"]),
        small_t_policy=str(cfg["small_t_policy"]),
    )
    value = lambda_r(cf, other, lam_cfg)
    config = {
        "family": family_desc,
        "vs": other.describe(),
        "r": lam_cfg.r,
        "t_min": lam_cfg.t_min,
        "t_max": lam_cfg.t_max,
        "grid_size": lam_cfg.grid_size,
        "small_t_policy": lam_cfg.small_t_policy,
    }
    result = {"r": lam_cfg.r, "lambda_r": value}
    return config, result, {"finite": math.isfinite(value)}, EXIT_OK


def _cmd_bound_check(args):
    cf, family_desc = _cf_from_args(args)
    cfg = _merge_config(
        {"m": None, "r": None, "backward": False, "assert": False,
         "t_min": 1e-3, "t_max": 50.0, "grid_size": 4096,
         "small_t_policy": "taylor-bound"},
        args,
    )
    if cfg["m"] is None or cfg["r"] is None:
        raise InputError("--m and --r are required")
    m, r = int(cfg["m"]), float(cfg["r"])
    lam_cfg = LambdaConfig(
        r=r, t_min=float(cfg["t_min"]), t_max=float(cfg["t_max"]),
        grid_size=int(cfg["grid_size"]), small_t_policy=str(cfg["small_t_policy"]),
    )
    config = {
        "family": family_desc, "m": m, "r": r,
        "direction": "backward" if cfg["backward"] else "forward",
        "assert": bool(cfg["assert"]),
        "t_min": lam_cfg.t_min, "t_max": lam_cfg.t_max,
        "grid_size": lam_cfg.grid_size, "small_t_policy": lam_cfg.small_t_policy,
    }
    if cfg["backward"]:
        chk = backward_bound(cf, m, r, lam_cfg)
        result = {
            "direction": "backward", "m": m, "r": r,
            "lhs": chk.lhs, "lower": chk.lower,
            "holds": chk.holds, "applicable": chk.applicable,
        }
        holds = chk.holds
    else:
        chk = clt_bound_check(cf, m, r, lam_cfg)
        result = {
            "direction": "forward", "m": m, "r": r,
            "lhs": chk.lhs, "rhs": chk.rhs,
            "holds": chk.holds, "applicable": chk.applicable,
        }
        holds = chk.holds
    code = EXIT_ASSERT if (bool(cfg["assert"]) and not holds) else EXIT_OK
    return config, result, {}, code


def _cmd_laplace(args):
    lt, family_desc = _lt_from_args(args)
    action = args.action
    if action == "drift":
        cfg = _merge_config({"schedule": "default"}, args)
        from .laplace_core import DEFAULT_S_SCHEDULE

        sched = (
            _parse_floats(cfg["schedule"])
            if cfg["schedule"] != "default"
            else DEFAULT_S_SCHEDULE
        )
        est = estimate_drift(lt, sched)
        config = {"family": family_desc, "schedule": list(sched)}
        result = {
            "sigma_hat": est.sigma_hat,
            "error_bound": est.error_bound,
            "s_used": est.s_used,
            "schedule_values": [[s, v] for s, v in zip(est.schedule, est.values)],
        }
        return config, result, {}, EXIT_OK
    if action == "support":
        cfg = _merge_config({"tol": 1e-4}, args)
        decision = support_touches_zero(lt, float(cfg["tol"]))
        config = {"family": family_desc, "tol": float(cfg["tol"])}
        result = {
            "touches_zero": decision.touches_zero,
            "sigma_hat": decision.sigma_hat,
            "error_bound": decision.estimate.error_bound,
        }
        return config, result, {}, EXIT_OK
    if action == "limit":
        cfg = _merge_config(
            {"m": None, "S": 10.0, "grid_size": 1024, "known_sigma": None,
             "tol": 1e-4},
            args,
        )
        if cfg["m"] is None:
            raise InputError("--m is required")
        m = int(cfg["m"])
        sigma = cfg["known_sigma"]
        sigma = float(sigma) if sigma is not None else None
        dev = limit_deviation_L(
            lt, m, float(cfg["S"]), int(cfg["grid_size"]),
            sigma=sigma, tol=float(cfg["tol"]),
        )
        config = {
            "family": family_desc, "m": m, "S": float(cfg["S"]),
            "grid_size": int(cfg["grid_size"]), "tol": float(cfg["tol"]),
            "known_sigma": sigma,
        }
        result = {
            "m": m,
            "deviation": dev,
            "sigma_source": "provided" if sigma is not None else "estimated",
        }
        return config, result, {}, EXIT_OK
    raise InputError(f"unknown laplace action {action!r}")


def _cmd_approx_compare(args):
    cf, family_desc = _cf_from_args(args)
    cfg = _merge_config(
        {"m": None, "alpha_grid": "1.0:1.95:20", "scale_grid": "0.25:4.0:21",
         "quad_n": 4096, "eps_tail": 1e-10, "tie_tol": 1e-4},
        args,
    )
    if cfg["m"] is None:
        raise InputError("--m is required")
    m = int(cfg["m"])
    alphas = _parse_grid(str(cfg["alpha_grid"]), "linear")
    scales = _parse_grid(str(cfg["scale_grid"]), "log")
    quad = QuadratureSpec(N=int(cfg["quad_n"]), eps_tail=float(cfg["eps_tail"]))
    report = approx_compare(cf, m, alphas, scales, quad, float(cfg["tie_tol"]))
    config = {
        "family": family_desc, "m": m,
        "alpha_grid": str(cfg["alpha_grid"]), "scale_grid": str(cfg["scale_grid"]),
        "quad_n": quad.N, "eps_tail": quad.eps_tail, "tie_tol": float(cfg["tie_tol"]),
    }
    result = {
        "family": report.family,
        "m": report.m,
        "d_gaussian": report.d_gaussian,
        "best_alpha": report.best_alpha,
        "best_scale": report.best_scale,
        "d_stable": report.d_stable,
        "verdict": report.verdict,
        "alpha_grid": list(report.alpha_grid),
        "scale_grid": list(report.scale_grid),
        "x_grid": report.x_grid,
        "quadrature": report.quadrature,
    }
    return config, result, {}, EXIT_OK


def _cmd_empirical(args):
    if not args.input:
        raise InputError("--input is required")
    samples = read_samples(args.input)
    cfg = _merge_config({"cf_t_max": 10.0, "cf_points": 101}, args)
    cf = from_samples(samples)
    arr = np.asarray(samples, dtype=float)
    grid = np.linspace(0.0, float(cfg["cf_t_max"]), int(cfg["cf_points"]))
    vals = cf.evaluate(grid)
    config = {
        "input": args.input,
        "cf_t_max": float(cfg["cf_t_max"]),
        "cf_points": int(cfg["cf_points"]),
    }
    result = {
        "n": int(arr.size),
        "mean": float(np.mean(arr)),
        "variance": float(np.var(arr)),
        "cf_t": [float(t) for t in grid],
        "cf_values": [float(v) for v in vals],
    }
    return config, result, {}, EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_cf_family_flags(p):
    p.add_argument("--family", choices=sorted(_CF_FAMILIES), help="base CF family")
    p.add_argument("--variance", type=float, help="gauss: variance")
    p.add_argument("--alpha", type=float, help="stable: index in (0, 2]")
    p.add_argument("--scale", type=float, help="stable: scale")
    p.add_argument("--shape", type=float, help="symgamma: shape")
    p.add_argument("--rate", type=float, help="cpoisson: jump intensity")
    p.add_argument("--jump", type=float, help="cpoisson: jump size")
    p.add_argument(
        "--convolve", action="append", metavar="FAMILY:K=V,...",
        help="convolve another component in (repeatable)",
    )


def _add_lt_family_flags(p):
    p.add_argument("--family", choices=sorted(_LT_FAMILIES), help="transform family")
    p.add_argument("--shape", type=float, help="gammasub: shape")
    p.add_argument("--rate", type=float, help="poissonsub: rate")
    p.add_argument("--alpha", type=float, help="stablesub: index in (0, 1)")
    p.add_argument("--scale", type=float, help="stablesub: scale")
    p.add_argument("--sigma", type=float, help="drift: coefficient")
    p.add_argument(
        "--convolve", action="append", metavar="FAMILY:K=V,...",
        help="convolve another component in (repeatable)",
    )


def _add_common(p):
    p.add_argument("--config", help="JSON file with numeric defaults")
    p.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="iddlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("detect",
                       help="gaussian component detection")
    _add_cf_family_flags(p)
    p.add_argument("--input", help="sample file, one value per line")
    p.add_argument("--tol", type=float, help="detection tolerance (default 1e-4)")
    p.add_argument("--schedule", help="comma-separated t schedule")
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("rescale",
                       help="root or sum rescaling of a CF")
    _add_cf_family_flags(p)
    p.add_argument("--m", type=int, help="rescaling order")
    p.add_argument("--transform", choices=("root", "sum"))
    p.add_argument("--t-max", dest="t_max", type=float, help="report grid half-width")
    p.add_argument("--points", type=int, help="report grid size")
    p.add_argument("--check-fixed-point", dest="check_fixed_point",
                   action="store_true", default=False,
                   help="report whether the CF is unchanged")
    _add_common(p)
    p.set_defaults(handler=_cmd_rescale)

    p = sub.add_parser("kurtosis",
                       help="kurtosis scaling check kappa(m) = m kappa(1)")
    _add_cf_family_flags(p)
    p.add_argument("--m", type=int, help="rescaling order")
    p.add_argument("--method", choices=("closed-form", "finite-difference"))
    _add_common(p)
    p.set_defaults(handler=_cmd_kurtosis)

    p = sub.add_parser("distance",
                       help="lambda_r distance between two CFs")
    _add_cf_family_flags(p)
    p.add_argument("--vs", metavar="FAMILY:K=V,...",
                   help="second CF (default: matched-variance gaussian)")
    p.add_argument("--r", type=float, help="metric order, r > 2")
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--small-t-policy", dest="small_t_policy",
                   choices=("taylor-bound", "exclude"))
    _add_common(p)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("bound-check",
                       help="forward or backward lambda_r rate bound")
    _add_cf_family_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--backward", action="store_true", default=False,
                   help="check the divergence bound instead of the CLT bound")
    p.add_argument("--assert", dest="assert", action="store_true", default=False,
                   help="exit 3 when the inequality fails")
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--small-t-policy", dest="small_t_policy",
                   choices=("taylor-bound", "exclude"))
    _add_common(p)
    p.set_defaults(handler=_cmd_bound_check)

    p = sub.add_parser("laplace",
                       help="positive-law transforms: drift, limit, support")
    p.add_argument("action", choices=("drift", "limit", "support"))
    _add_lt_family_flags(p)
    p.add_argument("--schedule", help="comma-separated s schedule (drift)")
    p.add_argument("--tol", type=float, help="support tolerance (default 1e-4)")
    p.add_argument("--m", type=int, help="rescaling order (limit)")
    p.add_argument("--S", type=float, help="deviation grid upper end (limit)")
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--known-sigma", dest="known_sigma", type=float,
                   help="compare against exp(-sigma s) with this known drift")
    _add_common(p)
    p.set_defaults(handler=_cmd_laplace)

    p = sub.add_parser("approx-compare",
                       help="gaussian vs stable approximation of the m-fold sum")
    _add_cf_family_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--alpha-grid", dest="alpha_grid", metavar="START:STOP:COUNT",
                   help="linear alpha grid (default 1.0:1.95:20)")
    p.add_argument("--scale-grid", dest="scale_grid", metavar="START:STOP:COUNT",
                   help="log-spaced scale grid (default 0.25:4.0:21)")
    p.add_argument("--quad-n", dest="quad_n", type=int, help="quadrature nodes")
    p.add_argument("--eps-tail", dest="eps_tail", type=float)
    p.add_argument("--tie-tol", dest="tie_tol", type=float)
    _add_common(p)
    p.set_defaults(handler=_cmd_approx_compare)

    p = sub.add_parser("empirical",
                       help="summarize a sample file and its empirical CF")
    p.add_argument("--input", required=False, help="sample file")
    p.add_argument("--cf-t-max", dest="cf_t_max", type=float)
    p.add_argument("--cf-points", dest="cf_points", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_empirical)

    return parser


def _emit(report: dict, output: str | None) -> None:
    text = render_json(report) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _UsageError(parser.format_usage())
        config, result, diagnostics, code = args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"iddlab: {exc}\n")
        return EXIT_INPUT
    except (InputError, ConfigError) as exc:
        sys.stderr.write(f"iddlab: input error: {exc}\n")
        return EXIT_INPUT
    except (PositivityError, MomentError, QuadratureError) as exc:
        sys.stderr.write(f"iddlab: numerical error: {exc}\n")
        return EXIT_NUMERIC
    except IddlabError as exc:
        sys.stderr.write(f"iddlab: error: {exc}\n")
        return EXIT_NUMERIC

    command = args.command
    if command == "laplace":
        command = f"laplace {args.action}"
    report = {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "result": result,
        "diagnostics": diagnostics,
        "meta": {
            "tool": "iddlab",
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        },
    }
    _emit(report, getattr(args, "output", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
