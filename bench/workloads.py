"""The three benchmark workloads: seeded inputs, one timed pass, correctness gates.

A pass runs every point of a workload once and applies the workload's
correctness gates. Each name imported from magskin below is an import site
that ``tracing.py`` may wrap, so the benchmark calls the library only through
these names.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from magskin.cli import main as cli_main
from magskin.geometry import Surface
from magskin.modal import (
    ModalSolution,
    conductor_l2_norm,
    default_benchmark,
    default_config,
    fit_convergence,
    shell_l2_error,
    solve_exact,
    solve_ibc,
)
from magskin.skin import DecayTrace, comparison_report, skin_depth_asymptotic, skin_depth_numeric

# The ModalSolution.u samples taken by the skin measurement; wrapped as modal.eval.
modal_u = ModalSolution.u

SEED_JITTER_DECADES = 0.25


@dataclass
class PassResult:
    """What one pass produced: point counts, per-point values and failed gates."""

    attempted: int = 0
    failed: int = 0
    values: dict[str, tuple[float, ...]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, what: str, exc: BaseException | str) -> None:
        self.failed += count
        self.errors.append(f"{what}: {exc}")


def _sweep(rng: random.Random, lo: float, hi: float) -> list[float]:
    """Five log-spaced values from lo to hi; the three interior ones jittered.

    The endpoints are the same at every seed, so every fit spans the same two
    or more decades and the endpoint points can be checked at any seed.
    """
    a, b = math.log10(lo), math.log10(hi)
    interior = [
        10.0 ** (a + (b - a) * i / 4 + rng.uniform(-SEED_JITTER_DECADES, SEED_JITTER_DECADES))
        for i in (1, 2, 3)
    ]
    return [lo, *interior, hi]


def _key(*parts) -> str:
    return " ".join(repr(p) for p in parts)


# --------------------------------------------------------------------------
# ibc_rates: acceptance criterion 7 (impedance orders 0/1/2 on modes 0..2)

IBC_MODES = (0, 1, 2)
IBC_ORDERS = (0, 1, 2)
IBC_SLOPE_TOL = {0: 0.2, 1: 0.2, 2: 0.3}


def build_ibc_rates(rng: random.Random, workdir: Path) -> dict:
    eps_list = _sweep(rng, 1e-3, 1e-1)
    items = [(mode, eps) for mode in IBC_MODES for eps in eps_list]
    rng.shuffle(items)
    return {"eps": eps_list, "items": items}


def pass_ibc_rates(inputs: dict, mark: Callable[[int], None]) -> PassResult:
    res = PassResult()
    errors: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for i, (mode, eps) in enumerate(inputs["items"]):
        res.attempted += len(IBC_ORDERS)
        mark(3 * i)
        try:
            bench = default_benchmark(mode).with_eps(eps)
            exact = solve_exact(bench)
        except Exception as exc:
            res.fail(len(IBC_ORDERS), f"exact m={mode} eps={eps!r}", exc)
            continue
        for k in IBC_ORDERS:
            mark(3 * i + k)
            try:
                err = shell_l2_error(exact, solve_ibc(bench, k)).total
            except Exception as exc:
                res.fail(1, f"ibc{k} m={mode} eps={eps!r}", exc)
                continue
            res.values[_key(mode, eps, k)] = (err,)
            errors.setdefault((mode, k), []).append((eps, err))
    for (mode, k), pts in sorted(errors.items()):
        if len(pts) < len(inputs["eps"]):
            continue  # a point of this sweep raised; counted in failed
        fit = fit_convergence(pts)
        if abs(fit.slope - (k + 1)) > IBC_SLOPE_TOL[k] or fit.r_squared < 0.98:
            res.problems.append(
                f"criterion 7, m={mode} order {k}: slope {fit.slope:.4f}, r^2 {fit.r_squared:.5f}"
            )
    return res


# --------------------------------------------------------------------------
# skin_conductor: measured skin depth, conductor norm and layer-profile reports

SKIN_MODES = (0, 1, 2, 5)
REPORT_SURFACES = (Surface.plane(), Surface.cylinder(1.0), Surface.sphere(1.0))


def build_skin_conductor(rng: random.Random, workdir: Path) -> dict:
    mu_list = _sweep(rng, 1e2, 1e6)
    items = [(mode, mu_r) for mode in SKIN_MODES for mu_r in mu_list]
    rng.shuffle(items)
    return {"mu_r": mu_list, "items": items}


def _skin_point(mode: int, mu_r: float) -> tuple[float, ...]:
    bench = default_benchmark(mode).with_eps(1.0 / math.sqrt(mu_r))
    dp = bench.params
    sol = solve_exact(bench)
    trace = DecayTrace(
        sampler=lambda h: abs(modal_u(sol, bench.r_in - h)),
        max_depth=min(10.0 * dp.ell_phi, 0.95 * bench.r_in),
    )
    depth = skin_depth_numeric(trace, dp.ell_phi)
    norm = conductor_l2_norm(sol)
    reports = tuple(comparison_report(dp, s).numeric for s in REPORT_SURFACES)
    return (depth, norm, *reports)


def pass_skin_conductor(inputs: dict, mark: Callable[[int], None]) -> PassResult:
    res = PassResult()
    for i, (mode, mu_r) in enumerate(inputs["items"]):
        res.attempted += 1
        mark(i)
        try:
            res.values[_key(mode, mu_r)] = _skin_point(mode, mu_r)
        except Exception as exc:
            res.fail(1, f"m={mode} mu_r={mu_r!r}", exc)
    rows = [res.values.get(_key(0, mu_r)) for mu_r in inputs["mu_r"]]
    if not all(rows):
        return res  # a mode-0 point raised; counted in failed
    remainders, norms = [], []
    for mu_r, (depth, norm, *_) in zip(inputs["mu_r"], rows):
        bench = default_benchmark(0).with_eps(1.0 / math.sqrt(mu_r))
        dp = bench.params
        law = skin_depth_asymptotic(dp, 0.5 / bench.r_in)
        remainders.append((mu_r, abs(depth - law) / dp.ell_phi))
        norms.append((dp.eps_small, norm))
    law_fit = fit_convergence(remainders)
    if abs(law_fit.slope + 1.0) > 0.2 or law_fit.r_squared < 0.98:
        res.problems.append(
            f"criterion 6, mode 0: remainder slope {law_fit.slope:.4f}, r^2 {law_fit.r_squared:.5f}"
        )
    norm_fit = fit_convergence(norms)
    if abs(norm_fit.slope - 0.5) > 0.1:
        res.problems.append(f"criterion 9, mode 0: conductor-norm slope {norm_fit.slope:.4f}")
    return res


# --------------------------------------------------------------------------
# mode_ladder_cli: the CLI error sweeps at orders up to 200

LADDER_MODES = (0, 3, 10, 30, 60, 100, 150, 200)
LADDER_COMMANDS = ("ibc-sweep", "expansion-error")


def _ladder_config() -> dict:
    cfg = default_config()
    return {
        "physical": {
            "omega_rad_per_s": cfg.omega,
            "eps0_farad_per_m": cfg.eps0,
            "mu_plus_henry_per_m": cfg.mu_plus,
            "mu_minus_henry_per_m": cfg.mu_minus,
            "sigma_plus_siemens_per_m": cfg.sigma_plus,
            "sigma_minus_siemens_per_m": cfg.sigma_minus,
        },
        "surface": {"kind": "cylinder", "radius": 1.0},
        "benchmark": {"R_in": 1.0, "R_out": 2.0, "r_source": 1.5, "mode": 0},
    }


def build_mode_ladder_cli(rng: random.Random, workdir: Path) -> dict:
    eps_list = [1e-3, 10.0 ** (-2.0 + rng.uniform(-SEED_JITTER_DECADES, SEED_JITTER_DECADES)), 1e-1]
    items = [(cmd, mode) for cmd in LADDER_COMMANDS for mode in LADDER_MODES]
    rng.shuffle(items)
    config = workdir / "ladder.json"
    config.write_text(json.dumps(_ladder_config()))
    return {
        "eps": eps_list,
        "items": items,
        "config": str(config),
        "out": str(workdir / "rows.csv"),
    }


def pass_mode_ladder_cli(inputs: dict, mark: Callable[[int], None]) -> PassResult:
    res = PassResult()
    eps_arg = ",".join(repr(e) for e in inputs["eps"])
    rows_per_call = len(inputs["eps"])
    for i, (cmd, mode) in enumerate(inputs["items"]):
        res.attempted += rows_per_call
        mark(i)
        argv = [
            cmd, "--config", inputs["config"], "--out", inputs["out"], "--k", "2",
            "--modes", str(mode), "--eps", eps_arg, "--jobs", "1",
        ]
        Path(inputs["out"]).unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        if code == 1:
            res.fail(rows_per_call, f"{cmd} m={mode}", stderr.getvalue().strip()[:200])
            continue
        if code != 0:
            res.problems.append(f"{cmd} m={mode}: unexpected exit code {code}: {stderr.getvalue()}")
            continue
        with open(inputs["out"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != rows_per_call:
            res.problems.append(f"{cmd} m={mode}: {len(rows)} rows, expected {rows_per_call}")
        for row in rows:
            if int(row["mode"]) != mode:
                res.problems.append(f"{cmd} m={mode}: row for another mode {row}")
            vals = (float(row["error_E"]), float(row["error_H"]))
            res.values[_key(cmd, mode, float(row["eps"]))] = vals
    return res


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random, Path], dict]
    run_pass: Callable[[dict, Callable[[int], None]], PassResult]


WORKLOADS = {
    "ibc_rates": Workload(build_ibc_rates, pass_ibc_rates),
    "skin_conductor": Workload(build_skin_conductor, pass_skin_conductor),
    "mode_ladder_cli": Workload(build_mode_ladder_cli, pass_mode_ladder_cli),
}


def build(name: str, seed: int, workdir: Path) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    return WORKLOADS[name].build(random.Random(seed), workdir)


def check_values(name: str, res: PassResult, reference: dict) -> None:
    """Every value must be finite and positive, and match its stored reference.

    A reference with rtol None is recorded but not checked (see make_reference.py).
    """
    table = reference["workloads"][name]
    for key, vals in res.values.items():
        if not all(math.isfinite(v) and v > 0 for v in vals):
            res.problems.append(f"{name} point {key}: non-positive or non-finite value {vals}")
        ref = table.get(key)
        if ref is None:
            continue
        for got, want, rtol in zip(vals, ref["value"], ref["rtol"]):
            if rtol is not None and not abs(got - want) <= rtol * abs(want):
                res.problems.append(
                    f"{name} point {key}: {got!r} differs from reference {want!r} by more than rtol {rtol:.1e}"
                )
