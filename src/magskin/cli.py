"""Batch front-end: JSON configs in, deterministic CSV/JSON artifacts out.

Commands: params, skin-depth, profile-table, ibc-factors, ibc-sweep,
expansion-error, convergence.  Sweeps run serially, one row per (mode, eps) in
ascending order of each; --jobs is accepted for old scripts and ignored.  All
floats are written with 17 significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace

from .geometry import Surface, TangentVector, mean_curvature
from .ibc import impedance_operator, leontovich_gap
from .modal import (
    ConvergenceFit, CylinderBenchmark, SolverError, convergence_study, model_errors, solve_exact,
)

# bench/tracing.py wraps these names on magskin.cli; the sweeps reach them through model_errors
from .modal import shell_l2_error, solve_ibc, truncated_expansion  # noqa: F401
from .params import PhysicalConfig, derive_params, leontovich_factor, mu_minus_for_eps
from .profiles import HarmonicTangentField, LayerField, TraceData

# bench/tracing.py wraps this name on magskin.cli as its "profiles" span
from .profiles import layer_modulus_sq  # noqa: F401
from .skin import DecayTrace, comparison_report

USAGE_EXIT = 2
FAILURE_EXIT = 1


class ConfigError(ValueError):
    """Malformed run configuration; the message carries the offending field path."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_MISSING = object()


def _lookup(mapping, path: str) -> object:
    """The value at a dotted path, or _MISSING when any part of the path is absent."""
    node = mapping
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def _get(
    mapping, path: str, expect_type, predicate=None, what: str = "", default=_MISSING
) -> object:
    """The checked value at a dotted path; an absent field is an error unless a default is given."""
    node = _lookup(mapping, path)
    if node is _MISSING:
        if default is _MISSING:
            raise ConfigError(f"config field {path}: missing")
        return default
    if expect_type is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    if not isinstance(node, expect_type) or isinstance(node, bool):
        raise ConfigError(f"config field {path}: expected {expect_type.__name__}, got {node!r}")
    if predicate is not None and not predicate(node):
        raise ConfigError(f"config field {path}: {what or 'invalid value'} (got {node!r})")
    return node


def load_physical(doc: dict) -> PhysicalConfig:
    pos = lambda v: v > 0
    try:
        return PhysicalConfig(
            omega=_get(doc, "physical.omega_rad_per_s", float, pos, "must be > 0"),
            eps0=_get(doc, "physical.eps0_farad_per_m", float, pos, "must be > 0"),
            mu_plus=_get(doc, "physical.mu_plus_henry_per_m", float, pos, "must be > 0"),
            mu_minus=_get(doc, "physical.mu_minus_henry_per_m", float, pos, "must be > 0"),
            sigma_plus=_get(doc, "physical.sigma_plus_siemens_per_m", float, pos, "must be > 0"),
            sigma_minus=_get(doc, "physical.sigma_minus_siemens_per_m", float, pos, "must be > 0"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config field physical: {exc}") from exc


def load_surface(doc: dict) -> Surface:
    kind = _get(doc, "surface.kind", str)
    if kind == "plane":
        return Surface.plane()
    if kind in ("cylinder", "sphere"):
        radius = _get(doc, "surface.radius", float, lambda v: 0 < v < math.inf, "must be finite and > 0")
        return Surface.cylinder(radius) if kind == "cylinder" else Surface.sphere(radius)
    raise ConfigError(f"config field surface.kind: unknown kind {kind!r}")


def _complex_field(doc: dict, path: str, default: complex) -> complex:
    node = _lookup(doc, path)
    if node is _MISSING:
        return default
    if (
        not isinstance(node, list)
        or len(node) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)
    ):
        raise ConfigError(f"config field {path}: expected [re, im]")
    return complex(node[0], node[1])


def load_benchmark(doc: dict, cfg: PhysicalConfig) -> CylinderBenchmark:
    pos = lambda v: v > 0
    r_in = _get(doc, "benchmark.R_in", float, pos, "must be > 0")
    r_out = _get(doc, "benchmark.R_out", float, pos, "must be > 0")
    r_source = _get(doc, "benchmark.r_source", float, pos, "must be > 0")
    mode = _get(doc, "benchmark.mode", int)
    amp = _complex_field(doc, "benchmark.source_amplitude", 1.0 + 0j)
    try:
        return CylinderBenchmark(
            r_in=r_in, r_out=r_out, r_source=r_source, mode=mode, cfg=cfg, source_amplitude=amp
        )
    except ValueError as exc:
        raise ConfigError(f"config field benchmark: {exc}") from exc


def load_sweep(doc: dict) -> tuple[str, list[float]] | None:
    if "sweep" not in doc:
        return None
    variable = _get(doc, "sweep.variable", str)
    if variable not in ("mu_r", "eps", "sigma_minus", "omega"):
        raise ConfigError(f"config field sweep.variable: unknown variable {variable!r}")
    values = _get(doc, "sweep.values", list)
    if not values:
        raise ConfigError("config field sweep.values: must be a non-empty list")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in values):
        raise ConfigError("config field sweep.values: all values must be positive numbers")
    floats = [float(v) for v in values]
    if sorted(floats) != floats:
        raise ConfigError("config field sweep.values: values must be sorted ascending")
    return variable, floats


def _apply_sweep(cfg: PhysicalConfig, variable: str, value: float) -> PhysicalConfig:
    """The config at one sweep value; a value that gives no valid config is a config error."""
    try:
        if variable == "mu_r":
            return cfg.with_mu_minus(cfg.mu_plus * value)
        if variable == "eps":
            return cfg.with_mu_minus(mu_minus_for_eps(cfg.mu_plus, value))
        if variable == "sigma_minus":
            return replace(cfg, sigma_minus=value)
        return replace(cfg, omega=value)
    except ValueError as exc:
        raise ConfigError(f"config field sweep.values: {exc}") from exc


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_params(doc: dict, args) -> str:
    cfg = load_physical(doc)
    dp = derive_params(cfg)
    leon = leontovich_factor(cfg)
    payload = {
        "mu_r": dp.mu_r,
        "eps_small": dp.eps_small,
        "delta_plus": dp.delta_plus,
        "delta_minus": dp.delta_minus,
        "kappa_plus": dp.kappa_plus,
        "theta": dp.theta,
        "lambda_re": dp.lam.real,
        "lambda_im": dp.lam.imag,
        "alpha_plus_re": dp.alpha_plus.real,
        "alpha_plus_im": dp.alpha_plus.imag,
        "alpha_minus_re": dp.alpha_minus.real,
        "alpha_minus_im": dp.alpha_minus.imag,
        "ell": dp.ell,
        "phi_value": dp.phi_value,
        "ell_phi": dp.ell_phi,
        "leontovich_re": leon.real,
        "leontovich_im": leon.imag,
    }
    return _json_dump(payload)


def _skin_depth_row(cfg: PhysicalConfig, surface: Surface, benchmark_doc: dict | None) -> list[str]:
    dp = derive_params(cfg)
    mean_curv = mean_curvature(surface)
    if surface.kind.value == "cylinder":
        if benchmark_doc is not None and "benchmark" in benchmark_doc:
            bench = replace(load_benchmark(benchmark_doc, cfg), mode=0)
            if bench.r_in != surface.radius:
                # H and L_asymptotic come from the surface, L_numeric from the benchmark
                raise ConfigError(
                    f"config field benchmark.R_in: {bench.r_in!r} differs from "
                    f"surface.radius {surface.radius!r}; the skin depth compares the two"
                )
        else:
            r = surface.radius
            bench = CylinderBenchmark(r_in=r, r_out=2.0 * r, r_source=1.5 * r, mode=0, cfg=cfg)
        sol = solve_exact(bench)
        trace = DecayTrace(
            sampler=lambda h: abs(sol.u(bench.r_in - h)),
            max_depth=min(10.0 * dp.ell_phi, 0.95 * bench.r_in),
        )
        report = comparison_report(dp, surface, numeric_trace=trace)
    else:
        report = comparison_report(dp, surface)
    residual = abs(report.numeric - report.asymptotic) / dp.ell_phi
    return [
        _fmt(dp.mu_r), _fmt(dp.eps_small), _fmt(dp.ell), _fmt(dp.phi_value), _fmt(mean_curv),
        _fmt(report.numeric), _fmt(report.asymptotic), _fmt(report.classical),
        _fmt(report.eddy2d), _fmt(report.high_conductivity), _fmt(residual),
    ]


def cmd_skin_depth(doc: dict, args) -> str:
    cfg = load_physical(doc)
    surface = load_surface(doc)
    sweep = load_sweep(doc)
    configs = [cfg] if sweep is None else [_apply_sweep(cfg, sweep[0], v) for v in sweep[1]]
    header = [
        "mu_r", "eps", "ell", "phi", "H", "L_numeric", "L_asymptotic",
        "L_classical", "L_eddy2d", "L_highcond", "residual",
    ]
    rows = [_skin_depth_row(c, surface, doc) for c in configs]
    return _csv_text(header, rows)


def cmd_profile_table(doc: dict, args) -> str:
    cfg = load_physical(doc)
    surface = load_surface(doc)
    dp = derive_params(cfg)
    # a table that is not an object would make every field below read as absent
    _get(doc, "profile_table", dict, default={})
    count = _get(doc, "profile_table.count", int, lambda v: v >= 2, "must be >= 2", default=101)
    default_depth = 5.0 * dp.ell_phi
    if surface.kind.value != "plane":
        default_depth = min(default_depth, 0.45 * surface.radius)
    # the layer's normal coordinates hold only inside the tubular neighborhood; a plane's is inf
    bound = surface.tubular_radius
    max_depth = _get(
        doc, "profile_table.max_depth_m", float, lambda v: 0 < v < bound,
        f"must be > 0 and below the surface's tubular radius {bound!r}", default=default_depth,
    )
    mode = _get(doc, "profile_table.mode", int, default=0)
    if mode != 0 and surface.kind.value != "cylinder":
        raise ConfigError(
            f"config field profile_table.mode: a nonzero mode needs a cylinder surface, "
            f"got {mode} on a {surface.kind.value}"
        )

    def tangent(path: str, default: complex) -> TangentVector:
        return TangentVector(
            _complex_field(doc, f"profile_table.{path}_1", default),
            _complex_field(doc, f"profile_table.{path}_2", 0j),
        )

    wavevector = (mode / surface.radius, 0.0) if mode != 0 else (0.0, 0.0)
    tr = TraceData(
        e0_trace=HarmonicTangentField(surface, tangent("e0", 1.0 + 0j), wavevector),
        e1_trace=HarmonicTangentField(surface, tangent("e1", 0j), wavevector),
    )
    field = LayerField.at(surface, tr, dp.lam, dp.eps_small, (0.0, 0.0))
    rows = []
    for i in range(count):
        y3 = max_depth * i / (count - 1)
        y3s = y3 / dp.eps_small
        tang, norm = field.fields(y3)
        modulus = math.sqrt(field.modulus_sq(y3))
        rows.append([
            _fmt(y3), _fmt(y3s),
            _fmt(tang.c1.real), _fmt(tang.c1.imag),
            _fmt(tang.c2.real), _fmt(tang.c2.imag),
            _fmt(norm.real), _fmt(norm.imag),
            _fmt(modulus),
        ])
    header = [
        "y3", "Y3", "tangential1_re", "tangential1_im", "tangential2_re", "tangential2_im",
        "normal_re", "normal_im", "modulus",
    ]
    return _csv_text(header, rows)


def _ibc_factor_payload(cfg: PhysicalConfig, k: int) -> dict:
    op = impedance_operator(k, cfg)
    return {
        "k": k,
        "scalar_part_re": op.scalar_part.real,
        "scalar_part_im": op.scalar_part.imag,
        "curvature_coeff_re": op.curvature_part.real,
        "curvature_coeff_im": op.curvature_part.imag,
        "leontovich_gap": leontovich_gap(op, cfg) if k >= 1 else None,
    }


def cmd_ibc_factors(doc: dict, args) -> str:
    cfg = load_physical(doc)
    if args.k is not None:
        return _json_dump(_ibc_factor_payload(cfg, args.k))
    return _json_dump([_ibc_factor_payload(cfg, k) for k in (0, 1, 2)])


def _sweep_values(doc: dict, args, no_eps: str) -> tuple[list[CylinderBenchmark], list[float], int]:
    """The sweep's benchmarks, one per mode (the config's mode by default), eps values and --k (1 by default),
    each checked before any solve: --eps must be given (``no_eps`` says what it needs), each mode must give
    a valid benchmark, and each eps a finite positive mu_minus = mu_plus/eps^2."""
    bench0 = load_benchmark(doc, load_physical(doc))
    if not args.eps:
        raise ConfigError(f"flag --eps: {no_eps}")
    modes = args.modes if args.modes is not None else [bench0.mode]
    for flag, values in (("--modes", modes), ("--eps", args.eps)):
        if len(set(values)) != len(values):
            raise ConfigError(f"flag {flag}: values must be distinct, got {values}")
    if not all(math.isfinite(e) and e > 0 for e in args.eps):
        raise ConfigError(f"flag --eps: values must be finite and positive, got {args.eps}")
    for eps in args.eps:
        try:
            mu_minus_for_eps(bench0.cfg.mu_plus, eps)
        except ValueError as exc:
            raise ConfigError(f"flag --eps: {exc}") from exc
    try:
        benches = [replace(bench0, mode=mode) for mode in modes]
    except ValueError as exc:
        raise ConfigError(f"flag --modes: {exc}") from exc
    return benches, args.eps, args.k if args.k is not None else 1


def _run_error_sweep(doc: dict, args, family: str) -> str:
    benches, eps_values, order = _sweep_values(doc, args, "need at least one value")
    rows = []
    for bench in sorted(benches, key=lambda b: b.mode):
        prev: tuple[float, float] | None = None
        for eps, err in model_errors(bench, family, order, sorted(eps_values)):
            total = err.total
            local = ""
            if prev is not None and total and prev[1]:  # an error of 0 has no log: the cell stays empty
                local = _fmt(math.log(total / prev[1]) / math.log(eps / prev[0]))
            rows.append([str(bench.mode), *map(_fmt, (eps, 1.0 / eps**2, err.error_e, err.error_h)), local])
            prev = (eps, total)
    header = ["mode", "eps", "mu_r", "error_E", "error_H", "local_slope"]
    return _csv_text(header, rows)


def _fit_payload(fit: ConvergenceFit) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "conclusive": fit.conclusive,
        "points": [[x, y] for x, y in fit.points],
        "local_slopes": list(fit.local_slopes),
    }


def cmd_convergence(doc: dict, args) -> str:
    benches, eps_values, order = _sweep_values(doc, args, "need at least five values for a rate fit")
    if len(eps_values) < 5:
        raise ConfigError(f"flag --eps: need at least five values for a rate fit, got {eps_values}")
    if max(eps_values) >= 1.0:
        raise ConfigError(f"flag --eps: values must lie in (0, 1), got {eps_values}")
    fits = {str(b.mode): _fit_payload(convergence_study(b, args.study, order, eps_values)) for b in benches}
    payload = {"study": args.study, "order": order, "fits": fits}
    return _json_dump(payload)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


# every flag, declared once; each command takes only those its handler reads
_FLAGS = {
    "--config": {"required": True, "help": "JSON run configuration"},
    "--out": {"default": None, "help": "output path (default: stdout)"},
    "--k": {"type": int, "choices": (0, 1, 2), "default": None, "help": "impedance/truncation order"},
    "--modes": {"type": _int_list, "default": None, "help": "comma-separated azimuthal modes"},
    "--eps": {"type": _float_list, "default": None, "help": "comma-separated eps values"},
    "--jobs": {"type": int, "default": 1, "help": "ignored; sweeps run serially"},
    "--study": {"choices": ("ibc", "expansion"), "default": "ibc"},
}
_IO_FLAGS = ("--config", "--out")
_SWEEP_FLAGS = (*_IO_FLAGS, "--k", "--modes", "--eps", "--jobs")

# command name -> (handler, the flags it reads)
_COMMANDS = {
    "params": (cmd_params, _IO_FLAGS),
    "skin-depth": (cmd_skin_depth, _IO_FLAGS),
    "profile-table": (cmd_profile_table, _IO_FLAGS),
    "ibc-factors": (cmd_ibc_factors, (*_IO_FLAGS, "--k")),
    "ibc-sweep": (functools.partial(_run_error_sweep, family="ibc"), _SWEEP_FLAGS),
    "expansion-error": (functools.partial(_run_error_sweep, family="expansion"), _SWEEP_FLAGS),
    "convergence": (cmd_convergence, (*_SWEEP_FLAGS, "--study")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magskin",
        description="Skin-effect asymptotics and impedance boundary conditions, validated on exact cylinder modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; argparse parsers hold no state between parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if not isinstance(doc, dict):
        print("error: config root must be a JSON object", file=sys.stderr)
        return USAGE_EXIT
    try:
        text = _COMMANDS[args.command][0](doc, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (SolverError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    _write_text(args.out, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
