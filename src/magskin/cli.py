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
from .ibc import impedance_operator
from .modal import (
    ConvergenceFit,
    CylinderBenchmark,
    SolverError,
    convergence_study,
    shell_l2_error,
    solve_exact,
    solve_ibc,
    truncated_expansion,
)
from .params import PhysicalConfig, derive_params, leontovich_factor
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
        radius = _get(doc, "surface.radius", float, lambda v: v > 0, "must be > 0")
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
    if variable == "mu_r":
        return cfg.with_mu_minus(cfg.mu_plus * value)
    if variable == "eps":
        return cfg.with_mu_minus(cfg.mu_plus / value**2)
    if variable == "sigma_minus":
        return replace(cfg, sigma_minus=value)
    return replace(cfg, omega=value)


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
    max_depth = _get(
        doc, "profile_table.max_depth_m", float, lambda v: 0 < v < math.inf,
        "must be finite and > 0", default=default_depth,
    )
    mode = _get(doc, "profile_table.mode", int, default=0)

    def tangent(path: str, default: complex) -> TangentVector:
        return TangentVector(
            _complex_field(doc, f"profile_table.{path}_1", default),
            _complex_field(doc, f"profile_table.{path}_2", 0j),
        )

    wavevector = (0.0, 0.0)
    if surface.kind.value == "cylinder" and mode != 0:
        wavevector = (mode / surface.radius, 0.0)
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
    leon = leontovich_factor(cfg)
    gap = None
    if k >= 1:
        gap = abs(1.0 / op.scalar_part - leon) / abs(leon)
    return {
        "k": k,
        "scalar_part_re": op.scalar_part.real,
        "scalar_part_im": op.scalar_part.imag,
        "curvature_coeff_re": op.curvature_part.real,
        "curvature_coeff_im": op.curvature_part.imag,
        "leontovich_gap": gap,
    }


def cmd_ibc_factors(doc: dict, args) -> str:
    cfg = load_physical(doc)
    if args.k is not None:
        return _json_dump(_ibc_factor_payload(cfg, args.k))
    return _json_dump([_ibc_factor_payload(cfg, k) for k in (0, 1, 2)])


def _sweep_values(args, config_mode: int) -> tuple[list[int], list[float]]:
    """The sweep's modes (the config's mode by default) and eps values, checked before any solve."""
    modes = args.modes if args.modes is not None else [config_mode]
    for flag, values in (("--modes", modes), ("--eps", args.eps)):
        if len(set(values)) != len(values):
            raise ConfigError(f"flag {flag}: values must be distinct, got {values}")
    if not all(math.isfinite(e) and e > 0 for e in args.eps):
        raise ConfigError(f"flag --eps: values must be finite and positive, got {args.eps}")
    return modes, args.eps


def _run_error_sweep(doc: dict, args, family: str) -> str:
    cfg = load_physical(doc)
    bench0 = load_benchmark(doc, cfg)
    if not args.eps:
        raise ConfigError("flag --eps: need at least one value")
    modes, eps_values = _sweep_values(args, bench0.mode)
    order = args.k if args.k is not None else 1
    rows = []
    for mode in sorted(modes):
        bench_mode = replace(bench0, mode=mode)
        bench_mode.shell_basis  # evaluated once per mode; with_eps hands it to each eps point
        prev: tuple[float, float] | None = None
        for eps in sorted(eps_values):
            bench = bench_mode.with_eps(eps)
            exact = solve_exact(bench)
            model = solve_ibc(bench, order) if family == "ibc" else truncated_expansion(bench, order)
            err = shell_l2_error(exact, model)
            total = err.total
            local = ""
            if prev is not None:
                local = _fmt(math.log(total / prev[1]) / math.log(eps / prev[0]))
            rows.append([str(mode), *map(_fmt, (eps, 1.0 / eps**2, err.error_e, err.error_h)), local])
            prev = (eps, total)
    header = ["mode", "eps", "mu_r", "error_E", "error_H", "local_slope"]
    return _csv_text(header, rows)


def cmd_ibc_sweep(doc: dict, args) -> str:
    return _run_error_sweep(doc, args, "ibc")


def cmd_expansion_error(doc: dict, args) -> str:
    return _run_error_sweep(doc, args, "expansion")


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
    cfg = load_physical(doc)
    bench0 = load_benchmark(doc, cfg)
    if not args.eps:
        raise ConfigError("flag --eps: need at least five values for a rate fit")
    modes, eps_values = _sweep_values(args, bench0.mode)
    if len(eps_values) < 5:
        raise ConfigError(f"flag --eps: need at least five values for a rate fit, got {eps_values}")
    if max(eps_values) >= 1.0:
        raise ConfigError(f"flag --eps: values must lie in (0, 1), got {eps_values}")
    order = args.k if args.k is not None else 1
    fits = {}
    for mode in modes:
        bench = replace(bench0, mode=mode)
        fits[str(mode)] = _fit_payload(convergence_study(bench, args.study, order, eps_values))
    payload = {"study": args.study, "order": order, "fits": fits}
    return _json_dump(payload)


# command name -> (handler, the one output format it emits)
_COMMANDS = {
    "params": (cmd_params, "json"),
    "skin-depth": (cmd_skin_depth, "csv"),
    "profile-table": (cmd_profile_table, "csv"),
    "ibc-factors": (cmd_ibc_factors, "json"),
    "ibc-sweep": (cmd_ibc_sweep, "csv"),
    "expansion-error": (cmd_expansion_error, "csv"),
    "convergence": (cmd_convergence, "json"),
}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magskin",
        description="Skin-effect asymptotics and impedance boundary conditions, validated on exact cylinder modes",
    )
    # the flags every command takes, declared once and shared through parents=
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--k", type=int, choices=(0, 1, 2), default=None,
                        help="impedance/truncation order")
    common.add_argument("--modes", type=_int_list, default=None, help="comma-separated azimuthal modes")
    common.add_argument("--eps", type=_float_list, default=None, help="comma-separated eps values")
    common.add_argument("--jobs", type=int, default=1, help="ignored; sweeps run serially")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "convergence":
            p.add_argument("--study", choices=("ibc", "expansion"), default="ibc")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; argparse parsers hold no state between parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler, native_format = _COMMANDS[args.command]
    if args.format is not None and args.format != native_format:
        print(
            f"error: command {args.command} emits {native_format}, not {args.format}",
            file=sys.stderr,
        )
        return USAGE_EXIT
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
        text = handler(doc, args)
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
