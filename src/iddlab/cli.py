"""Command line front end.

Each subcommand is a thin adapter over one library operation.  main
builds the command's law: an empirical CF from the --input sample file,
or the --family of the command's family table with any --convolve parts
combined by that table's product.  A handler maps (law, cfg), cfg being
the merged knobs, to (result, diagnostics) through public library calls;
main adds the config block, {"family": law.describe(), **cfg} (for
empirical {"input": path, **cfg}), and the exit code.  Each run emits a
single JSON report:

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
flags override file values.  Each subcommand declares its knobs once,
in an option table from which the parser, the config merge and the
conversion of flag and file values are all built.  Families are
described on the command line: --family picks the base law and its
parameters, and repeated --convolve FAMILY:key=value,... flags convolve
further components in.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_DETECTION_TOL,
    DEFAULT_T_SCHEDULE,
    has_gaussian_component,
    kurtosis_scaling_check,
    moments,
    remainder_profile,
)
from .cf_core import (
    CompoundPoissonCF,
    GaussianCF,
    StableCF,
    SymmetrizedGammaCF,
    convolve,
    from_samples,
    root_rescale,
    sum_rescale,
)
from .errors import ConfigError, IddlabError, InputError
from .inversion import _START_BUDGET, QuadratureSpec, approx_compare
from .inversion import _TOL as _QUAD_TOL
from .laplace_core import (
    DEFAULT_S_GRID_SIZE,
    DriftTransform,
    GammaSubordinator,
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


def _families(classes: dict) -> dict:
    """kind -> (parameter names, class); a family's parameters are its fields."""
    return {kind: (tuple(f.name for f in fields(cls)), cls) for kind, cls in classes.items()}


_CF_FAMILIES = _families({
    "gauss": GaussianCF,
    "stable": StableCF,
    "symgamma": SymmetrizedGammaCF,
    "cpoisson": CompoundPoissonCF,
})

_LT_FAMILIES = _families({
    "gammasub": GammaSubordinator,
    "poissonsub": PoissonSubordinator,
    "stablesub": StableSubordinator,
    "drift": DriftTransform,
})


def _build_family(kind: str, params: dict, table: dict):
    # kind is known: argparse choices and _parse_inline_spec check it first
    names, cls = table[kind]
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise InputError(f"family {kind!r} needs --{missing[0].replace('_', '-')}")
    extra = [n for n, v in params.items() if v is not None and n not in names]
    if extra:
        raise InputError(f"parameter {extra[0]!r} does not belong to family {kind!r}")
    return cls(**{n: params[n] for n in names})


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
    return _build_family(kind, params, table)


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
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read sample file {path}: {exc}") from None
    if not values:
        raise InputError(f"{path}: no samples found")
    return values


def _law_from_args(args):
    """An empirical CF of --input, or --family with its --convolve parts."""
    families = args.families
    if getattr(args, "input", None):
        base = from_samples(read_samples(args.input))
    elif families is None:
        raise InputError("--input is required")
    elif args.family:
        params = {n: getattr(args, n) for names, _ in families.values() for n in names}
        base = _build_family(args.family, params, families)
    else:
        hint = " (or --input for sample data)" if hasattr(args, "input") else ""
        raise InputError(f"specify --family{hint}")
    parts = [_parse_inline_spec(spec, families) for spec in getattr(args, "convolve", None) or ()]
    product = convolve if families is _CF_FAMILIES else convolve_L
    return product(base, *parts) if parts else base


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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InputError(f"grid spec {text!r} needs a finite start and stop")
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
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _merge_config(options, args) -> dict:
    """defaults < config file < explicit flags, with unknown keys rejected.

    File and flag values pass through the same converter and choice
    check; a JSON null leaves the value unset, like an absent flag.
    """
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - {key for key, *_ in options})
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} for this command")
    merged = {}
    for key, convert, default, choices, _ in options:
        flag = _flag(key)
        value = default
        for raw, where, error in (
            (file_cfg.get(key), f"config key {key!r}", ConfigError),
            (getattr(args, key), flag, InputError),
        ):
            if raw is None:
                continue
            try:
                value = convert(raw)
            except (ValueError, OverflowError) as exc:
                raise error(f"{where}: {exc}") from None
            if choices and value not in choices:
                raise error(f"{where}: {value!r} is not one of {', '.join(choices)}")
        if value is _REQUIRED:
            raise InputError(f"{flag} is required")
        merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# option tables
#
# Each knob is a row (key, converter, default, choices, help).  Its flag
# is --key with "_" spelled "-", and its config-file key is key itself.
# Flags reach the converter as the raw command-line text, file values as
# parsed JSON; _switch rows become store-true flags.


_REQUIRED = object()


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _integer(value) -> int:
    if isinstance(value, str):
        return int(value)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not float(value).is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _schedule(value) -> tuple:
    text = _text(value)
    return DEFAULT_T_SCHEDULE if text == "default" else _parse_floats(text)


_M = ("m", _integer, _REQUIRED, None, "rescaling order")
_R = ("r", _number, _REQUIRED, None, "metric order, r > 2")
_TOL = ("tol", _number, DEFAULT_DETECTION_TOL, None, "decision tolerance (default 1e-4)")
_SCHEDULE = ("schedule", _schedule, DEFAULT_T_SCHEDULE, None, "comma-separated schedule")
_LAMBDA = (
    ("t_min", _number, LambdaConfig.t_min, None, "smallest grid t"),
    ("t_max", _number, LambdaConfig.t_max, None, "largest grid t"),
    ("grid_size", _integer, LambdaConfig.grid_size, None, "grid points"),
)


def _lambda_config(cfg: dict) -> LambdaConfig:
    return LambdaConfig(r=cfg["r"], **{key: cfg[key] for key, *_ in _LAMBDA})


def _linspace(start: float, stop: float, points: int, flags: str) -> np.ndarray:
    if not math.isfinite(stop - start) or points < 1:
        raise InputError(f"{flags} need a finite span and at least one point")
    return np.linspace(start, stop, points)


# ---------------------------------------------------------------------------
# subcommand handlers; each maps the command's law and merged knobs to
# (result, diagnostics)


def _profile_grid(t_used: float) -> np.ndarray:
    return np.geomspace(0.1, t_used, 101)


def _cmd_detect(cf, cfg):
    decision = has_gaussian_component(cf, cfg["tol"], cfg["schedule"])
    est = decision.estimate
    a_used = est.a_hat if decision.has_component else 0.0
    profile = remainder_profile(cf, a_used, _profile_grid(est.t_used))
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
        "decision_margin": est.a_hat - cfg["tol"] - est.error_bound,
        "a_used_for_profile": a_used,
    }
    return result, diagnostics


def _cmd_rescale(cf, cfg):
    m, transform = cfg["m"], cfg["transform"]
    rescaled = (root_rescale if transform == "root" else sum_rescale)(cf, m)
    grid = _linspace(-cfg["t_max"], cfg["t_max"], cfg["points"], "--t-max and --points")
    base_vals = cf.evaluate(grid)
    new_vals = rescaled.evaluate(grid)
    deviation = float(np.max(np.abs(new_vals - base_vals)))
    result = {
        "m": m,
        "transform": transform,
        "sup_abs_difference": deviation,
        "t": [float(t) for t in grid],
        "rescaled_values": [float(v) for v in new_vals],
        "base_values": [float(v) for v in base_vals],
    }
    if cfg["check_fixed_point"]:
        result["fixed_point"] = {
            "deviation": deviation,
            "is_fixed_point": bool(deviation < 1e-12),
        }
    return result, {}


def _cmd_kurtosis(cf, cfg):
    check = kurtosis_scaling_check(cf, cfg["m"], cfg["method"])
    base, resc = check.base_moments, check.rescaled_moments
    result = {
        "m": check.m,
        "kappa_1": check.kappa_1,
        "kappa_m": check.kappa_m,
        "expected_m_times_kappa_1": check.expected,
        "relative_error": check.relative_error,
        "base_moments": {"mu2": base.mu2, "mu4": base.mu4, "kappa": base.kappa},
        "rescaled_moments": {"mu2": resc.mu2, "mu4": resc.mu4, "kappa": resc.kappa},
    }
    return result, {}


def _cmd_distance(cf, cfg):
    if cfg["vs"]:
        other = _parse_inline_spec(cfg["vs"], _CF_FAMILIES)
    else:
        other = GaussianCF(moments(cf).mu2)
    cfg["vs"] = other.describe()
    value = lambda_r(cf, other, _lambda_config(cfg))
    return {"r": cfg["r"], "lambda_r": value}, {"finite": math.isfinite(value)}


def _cmd_bound_check(cf, cfg):
    m, r = cfg["m"], cfg["r"]
    lam_cfg = _lambda_config(cfg)
    if cfg["backward"]:
        chk = backward_bound(cf, m, r, lam_cfg)
        bound = {"lower": chk.lower}
    else:
        chk = clt_bound_check(cf, m, r, lam_cfg)
        bound = {"rhs": chk.rhs}
    result = {
        "direction": "backward" if cfg["backward"] else "forward", "m": m, "r": r,
        "lhs": chk.lhs, **bound, "holds": chk.holds, "applicable": chk.applicable,
    }
    return result, {}


def _cmd_laplace_drift(lt, cfg):
    est = estimate_drift(lt, cfg["schedule"])
    result = {
        "sigma_hat": est.sigma_hat,
        "error_bound": est.error_bound,
        "s_used": est.s_used,
        "schedule_values": [[s, v] for s, v in zip(est.schedule, est.values)],
    }
    return result, {}


def _cmd_laplace_support(lt, cfg):
    decision = support_touches_zero(lt, cfg["tol"], cfg["schedule"])
    result = {
        "touches_zero": decision.touches_zero,
        "sigma_hat": decision.sigma_hat,
        "error_bound": decision.estimate.error_bound,
    }
    return result, {}


def _cmd_laplace_limit(lt, cfg):
    sigma = cfg["known_sigma"]
    dev = limit_deviation_L(
        lt, cfg["m"], cfg["S"], cfg["grid_size"],
        sigma=sigma, tol=cfg["tol"], s_schedule=cfg["schedule"],
    )
    result = {
        "m": cfg["m"],
        "deviation": dev,
        "sigma_source": "provided" if sigma is not None else "estimated",
    }
    return result, {}


def _cmd_approx_compare(cf, cfg):
    alphas = _parse_grid(cfg["alpha_grid"], "linear")
    scales = _parse_grid(cfg["scale_grid"], "log")
    report = approx_compare(cf, cfg["m"], alphas, scales, QuadratureSpec(N=cfg["quad_n"]))
    return asdict(report), {}


def _cmd_empirical(cf, cfg):
    grid = _linspace(0.0, cfg["cf_t_max"], cfg["cf_points"], "--cf-t-max and --cf-points")
    vals = cf.evaluate(grid)
    result = {
        "n": int(cf.samples.size),
        "mean": float(np.mean(cf.samples)),
        "variance": float(np.var(cf.samples)),
        "cf_t": [float(t) for t in grid],
        "cf_values": [float(v) for v in vals],
    }
    return result, {}


# name -> (handler, help, families, knobs); a two-word name is an action
# of the group named by its first word
_COMMANDS = {
    "detect": (_cmd_detect, "gaussian component detection", _CF_FAMILIES, (_TOL, _SCHEDULE)),
    "rescale": (_cmd_rescale, "root or sum rescaling of a CF", _CF_FAMILIES, (
        _M,
        ("transform", _text, "root", ("root", "sum"), None),
        ("t_max", _number, 10.0, None, "report grid half-width"),
        ("points", _integer, 201, None, "report grid size"),
        ("check_fixed_point", _switch, False, None, "report whether the CF is unchanged"),
    )),
    "kurtosis": (_cmd_kurtosis, "kurtosis scaling check kappa(m) = m kappa(1)", _CF_FAMILIES, (
        _M,
        ("method", _text, "closed-form", ("closed-form", "finite-difference"), None),
    )),
    "distance": (_cmd_distance, "lambda_r distance between two CFs", _CF_FAMILIES, (
        ("vs", _text, None, None,
         "second CF, FAMILY:K=V,... (default: matched-variance gaussian)"),
        _R,
        *_LAMBDA,
    )),
    "bound-check": (_cmd_bound_check, "forward or backward lambda_r rate bound", _CF_FAMILIES, (
        _M,
        _R,
        ("backward", _switch, False, None,
         "check the divergence bound instead of the CLT bound"),
        ("assert", _switch, False, None, "exit 3 when the inequality fails"),
        *_LAMBDA,
    )),
    "laplace drift": (_cmd_laplace_drift, "drift estimate sigma_hat", _LT_FAMILIES, (_SCHEDULE,)),
    "laplace support": (_cmd_laplace_support, "does the support touch zero", _LT_FAMILIES,
                        (_TOL, _SCHEDULE)),
    "laplace limit": (_cmd_laplace_limit, "distance to the limit transform", _LT_FAMILIES, (
        _M,
        ("S", _number, 10.0, None, "deviation grid upper end"),
        ("grid_size", _integer, DEFAULT_S_GRID_SIZE, None, "deviation grid points"),
        _TOL,
        ("known_sigma", _number, None, None,
         "compare against exp(-sigma s) with this known drift"),
        _SCHEDULE,
    )),
    "approx-compare": (_cmd_approx_compare, "gaussian vs stable approximation of the m-fold sum",
                       _CF_FAMILIES, (
        _M,
        ("alpha_grid", _text, "1.0:1.95:20", None, "linear alpha grid START:STOP:COUNT"),
        ("scale_grid", _text, "0.25:4.0:21", None, "log-spaced scale grid START:STOP:COUNT"),
        ("quad_n", _integer, QuadratureSpec.N, None,
         f"fixed node budget (default: doubled from {_START_BUDGET} until the error "
         f"estimate is within {_QUAD_TOL:g})"),
    )),
    "empirical": (_cmd_empirical, "summarize a sample file and its empirical CF", None, (
        ("cf_t_max", _number, 10.0, None, "CF grid upper end"),
        ("cf_points", _integer, 101, None, "CF grid size"),
    )),
}


# ---------------------------------------------------------------------------
# parser assembly


def _add_family_flags(p, families: dict) -> None:
    p.add_argument("--family", choices=sorted(families), help="base family")
    used_by: dict = {}
    for kind, (names, _) in families.items():
        for name in names:
            used_by.setdefault(name, []).append(kind)
    for name, kinds in used_by.items():
        p.add_argument(f"--{name}", type=float, help=f"parameter of {', '.join(kinds)}")
    p.add_argument(
        "--convolve", action="append", metavar="FAMILY:K=V,...",
        help="convolve another component in (repeatable)",
    )


_GROUPS = {"laplace": "positive-law transforms: drift, limit, support"}


def build_parser() -> _Parser:
    parser = _Parser(prog="iddlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    groups: dict = {}
    for name, (handler, help_text, families, options) in _COMMANDS.items():
        group, _, action = name.partition(" ")
        if action:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                    dest="action", metavar="ACTION", required=True, parser_class=_Parser
                )
            p = groups[group].add_parser(action, help=help_text)
        else:
            p = sub.add_parser(name, help=help_text)
        if families is not None:
            _add_family_flags(p, families)
        if name in ("detect", "empirical"):
            p.add_argument("--input", help="sample file, one value per line")
        for key, convert, _, choices, help_text in options:
            if convert is _switch:
                p.add_argument(_flag(key), dest=key, action="store_true", default=None,
                               help=help_text)
            else:
                p.add_argument(_flag(key), dest=key, choices=choices, help=help_text)
        p.add_argument("--config", help="JSON file with numeric defaults")
        p.add_argument("--output", help="write the report here instead of stdout")
        # the command's own defaults override the name its group parser set
        p.set_defaults(handler=handler, command=name, options=options, families=families)
    return parser


def _emit(report: dict, output: str | None) -> None:
    text = render_json(report) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write report to {output}: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _UsageError(parser.format_usage())
        cfg = _merge_config(args.options, args)
        # an exponent that overflows to -inf is the right limit (phi = 0),
        # so numpy's overflow warnings carry no news for the user
        with np.errstate(over="ignore"):
            law = _law_from_args(args)
            result, diagnostics = args.handler(law, cfg)
        source = {"input": args.input} if args.families is None else {"family": law.describe()}
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "config": {**source, **cfg},
            "result": result,
            "diagnostics": diagnostics,
            "meta": {
                "tool": "iddlab",
                "version": __version__,
                "generated_at": datetime.now(timezone.utc).isoformat(),
            },
        }
        _emit(report, args.output)
    except _UsageError as exc:
        sys.stderr.write(f"iddlab: {exc}\n")
        return EXIT_INPUT
    except (InputError, ConfigError) as exc:
        sys.stderr.write(f"iddlab: input error: {exc}\n")
        return EXIT_INPUT
    except MemoryError:
        # a grid or point count too large to allocate
        sys.stderr.write("iddlab: input error: not enough memory; request fewer points\n")
        return EXIT_INPUT
    except IddlabError as exc:
        sys.stderr.write(f"iddlab: numerical error: {exc}\n")
        return EXIT_NUMERIC
    return EXIT_ASSERT if cfg.get("assert") and not result["holds"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
