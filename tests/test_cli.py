import argparse
import cmath
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace

import pytest

import magskin
from magskin import cli, modal, skin
from magskin.cli import _COMMANDS, _float_list, _int_list, build_parser, load_physical, main
from magskin.geometry import Surface, TangentVector
from magskin.modal import fit_convergence
from magskin.params import DerivedParams, derive_params
from magskin.profiles import HarmonicTangentField, LayerField, TraceData

BASE_CONFIG = {
    "physical": {
        "omega_rad_per_s": 1.0,
        "eps0_farad_per_m": 1.0,
        "mu_plus_henry_per_m": 1.0,
        "mu_minus_henry_per_m": 100.0,
        "sigma_plus_siemens_per_m": 0.01,
        "sigma_minus_siemens_per_m": 1.0,
    },
    "surface": {"kind": "cylinder", "radius": 1.0},
    "benchmark": {"R_in": 1.0, "R_out": 2.0, "r_source": 1.5, "mode": 0},
}

EPS5 = "0.1,0.031622776601683794,0.01,0.0031622776601683794,0.001"


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_matches_derived_scalars(cfg_path, capsys):
    code, out, _ = run(["params", "--config", cfg_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda_re"] - 0.4550898605622273) <= 1e-14
    assert abs(doc["lambda_im"] + 1.0986841134678098) <= 1e-14
    assert doc["mu_r"] == 100.0
    assert abs(doc["phi_value"] - 1.5537739740300373) <= 1e-12


def test_byte_determinism(cfg_path, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["skin-depth", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["skin-depth", "--config", cfg_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_skin_depth_header_and_plane_residual(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["surface"] = {"kind": "plane"}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(["skin-depth", "--config", str(path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "mu_r", "eps", "ell", "phi", "H", "L_numeric", "L_asymptotic",
        "L_classical", "L_eddy2d", "L_highcond", "residual",
    ]
    assert float(rows[1][10]) <= 1e-10


def test_profile_table_header_and_monotone_decay(cfg_path, capsys):
    code, out, _ = run(["profile-table", "--config", cfg_path], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "y3", "Y3", "tangential1_re", "tangential1_im", "tangential2_re",
        "tangential2_im", "normal_re", "normal_im", "modulus",
    ]
    moduli = [float(r[8]) for r in rows[1:]]
    assert moduli[0] == 1.0
    assert all(b < a for a, b in zip(moduli, moduli[1:]))


def test_profile_table_rows_sample_the_layer_field(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, surface={"kind": "cylinder", "radius": 0.7})
    cfg["profile_table"] = {
        "mode": 3, "count": 23,
        "e0_1": [0.8, 0.3], "e0_2": [0.5, -0.2], "e1_1": [0.1, -0.4], "e1_2": [-0.3, 0.6],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(["profile-table", "--config", str(path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 23

    s = Surface.cylinder(0.7)
    tr = TraceData(
        e0_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0.8 + 0.3j, 0.5 - 0.2j), 3),
        e1_trace=HarmonicTangentField.cylinder_mode(s, TangentVector(0.1 - 0.4j, -0.3 + 0.6j), 3),
    )
    dp = derive_params(load_physical(cfg))
    field = LayerField.at(s, tr, dp.lam, dp.eps_small, (0.0, 0.0))
    for row in rows:
        y3 = float(row[0])
        tang, norm = field.fields(y3)
        expected = [tang.c1.real, tang.c1.imag, tang.c2.real, tang.c2.imag, norm.real, norm.imag]
        assert row[2:8] == [f"{x:.17g}" for x in expected]
        assert row[8] == f"{math.sqrt(field.modulus_sq(y3)):.17g}"


def test_ibc_factors_payload(cfg_path, capsys):
    code, out, _ = run(["ibc-factors", "--config", cfg_path, "--k", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert abs(doc["curvature_coeff_im"] + 1.0 / 100.0) <= 1e-15
    assert doc["leontovich_gap"] > 0

    code, out, _ = run(["ibc-factors", "--config", cfg_path], capsys)
    docs = json.loads(out)
    assert [d["k"] for d in docs] == [0, 1, 2]
    assert docs[0]["leontovich_gap"] is None


def test_ibc_sweep_slope_column(cfg_path, capsys):
    code, out, _ = run(
        ["ibc-sweep", "--config", cfg_path, "--k", "2", "--modes", "0",
         "--eps", "0.1,0.031622776601683794,0.01"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["mode", "eps", "mu_r", "error_E", "error_H", "local_slope"]
    assert rows[1][5] == ""
    slopes = [float(r[5]) for r in rows[2:]]
    assert all(abs(s - 3.0) <= 0.3 for s in slopes)


def test_convergence_fit_matches_sweep_csv(cfg_path, capsys):
    args = ["--config", cfg_path, "--k", "1", "--modes", "1", "--eps", EPS5]
    code, sweep_out, _ = run(["ibc-sweep", *args], capsys)
    assert code == 0
    code, fit_out, _ = run(["convergence", "--study", "ibc", *args], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(sweep_out)))[1:]
    points = [(float(r[1]), float(r[3]) + float(r[4])) for r in rows]
    refit = fit_convergence(points)
    reported = json.loads(fit_out)["fits"]["1"]["slope"]
    assert abs(refit.slope - reported) <= 1e-12


def test_expansion_error_command(cfg_path, capsys):
    code, out, _ = run(
        ["expansion-error", "--config", cfg_path, "--k", "0", "--modes", "0",
         "--eps", "0.1,0.01"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3 and rows[0][0] == "mode"


def test_jobs_flag_is_ignored(cfg_path, tmp_path):
    args = ["ibc-sweep", "--config", cfg_path, "--k", "1", "--modes", "0,1",
            "--eps", "0.1,0.01"]
    plain = tmp_path / "plain.csv"
    assert main([*args, "--out", str(plain)]) == 0
    for jobs in ("2", "0"):
        flagged = tmp_path / f"jobs{jobs}.csv"
        assert main([*args, "--jobs", jobs, "--out", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("command", ["ibc-sweep", "expansion-error"])
def test_sweep_rows_come_in_mode_then_eps_order(command, cfg_path, capsys):
    eps_arg = "0.01,0.1,0.001,0.031622776601683794"
    code, out, _ = run(
        [command, "--config", cfg_path, "--k", "2", "--modes", "3,0,-2", "--eps", eps_arg], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    bench0 = cli.load_benchmark(BASE_CONFIG, load_physical(BASE_CONFIG))
    eps_sorted = sorted(_float_list(eps_arg))
    want = [(mode, eps) for mode in (-2, 0, 3) for eps in eps_sorted]
    assert [(int(r[0]), float(r[1])) for r in rows] == want
    prev = None
    for row, (mode, eps) in zip(rows, want):
        b = replace(bench0, mode=mode).with_eps(eps)
        exact = modal.solve_exact(b)
        if command == "ibc-sweep":
            model = modal.solve_ibc(b, 2)
        else:
            model = modal.truncated_expansion(b, 2)
        err = modal.shell_l2_error(exact, model)
        assert row[3:5] == [cli._fmt(err.error_e), cli._fmt(err.error_h)]
        total = err.error_e + err.error_h
        if eps == eps_sorted[0]:
            assert row[5] == ""
        else:
            slope = math.log(total / prev[1]) / math.log(eps / prev[0])
            assert row[5] == cli._fmt(slope)
        prev = (eps, total)


@pytest.mark.parametrize("command", ["ibc-sweep", "expansion-error", "convergence"])
@pytest.mark.parametrize(
    "flag, modes, eps",
    [("--eps", "0", "0.1,0.1"), ("--modes", "0,0", "0.1,0.01"), ("--modes", "1,0,1", "0.1")],
)
def test_repeated_sweep_values_are_a_usage_error(command, flag, modes, eps, cfg_path, capsys):
    # a repeated eps made the local slope divide by log(1) = 0
    code, out, err = run(
        [command, "--config", cfg_path, "--modes", modes, "--eps", eps], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: flag {flag}: values must be distinct")


@pytest.mark.parametrize("command", ["ibc-sweep", "expansion-error", "convergence"])
@pytest.mark.parametrize("bad", ["-0.1", "0", "nan", "inf"])
def test_non_positive_eps_is_a_usage_error(command, bad, cfg_path, capsys):
    # checked before any solve, so with_eps never raises its bare "eps must be positive" (exit 1)
    code, out, err = run(
        [command, "--config", cfg_path, f"--eps={bad},0.1,0.01,0.001,0.0001"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: flag --eps: values must be finite and positive")


@pytest.mark.parametrize("command", ["ibc-sweep", "expansion-error", "convergence"])
@pytest.mark.parametrize("eps, shown", [("1e-170", "inf"), ("1e+200", "0.0")])
def test_eps_without_a_finite_mu_minus_is_a_usage_error(command, eps, shown, cfg_path, monkeypatch, capsys):
    # eps^2 underflowed to 0 and the sweep died in a ZeroDivisionError traceback (exit 1)
    def no_solve(*args):
        raise AssertionError("a solve ran")

    for name in ("model_errors", "convergence_study"):
        monkeypatch.setattr(cli, name, no_solve)
    code, out, err = run([command, "--config", cfg_path, "--eps", f"0.1,{eps}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: flag --eps: eps = {eps} gives mu_minus = mu_plus/eps^2 = {shown};")


@pytest.mark.parametrize(
    "command, modes, bad",
    [("ibc-sweep", "0,201", 201), ("expansion-error", "-201", -201), ("convergence", "3,0,-250", -250)],
)
def test_out_of_range_mode_is_a_usage_error_before_any_solve(command, modes, bad, cfg_path, monkeypatch, capsys):
    # this exited 1, after solving the modes before it; benchmark.mode in the config already exited 2
    def no_solve(*args):
        raise AssertionError("a solve ran")

    for name in ("model_errors", "convergence_study"):
        monkeypatch.setattr(cli, name, no_solve)
    code, out, err = run([command, "--config", cfg_path, "--modes", modes, "--eps", EPS5], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: flag --modes: |mode| must be <= 200, got {bad}\n"


@pytest.mark.parametrize(
    "variable, values, message",
    [
        ("eps", [1e-170, 0.1], "eps = 1e-170 gives mu_minus"),
        # mu_plus*mu_r overflows: this exited 1, as if a solve had failed
        ("mu_r", [100.0, 1e308], "mu_minus must be a finite positive number, got inf"),
    ],
)
def test_skin_depth_sweep_value_without_a_valid_config_is_a_usage_error(variable, values, message, tmp_path, capsys):
    physical = dict(BASE_CONFIG["physical"], mu_plus_henry_per_m=10.0)
    cfg = dict(BASE_CONFIG, physical=physical, sweep={"variable": variable, "values": values})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["skin-depth", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config field sweep.values: {message}")


def test_permeability_warning_names_the_cli(cfg_path, capsys):
    with pytest.warns(UserWarning, match="^mu_minus < mu_plus") as record:
        code, _, _ = run(["ibc-sweep", "--config", cfg_path, "--eps", "1.5,0.1"], capsys)
    assert code == 0
    assert len(record) == 1
    assert record[0].filename == cli.__file__


@pytest.mark.parametrize(
    "eps, message",
    [
        ("0.1,0.01,0.001,0.0001,1.5", "values must lie in (0, 1)"),
        ("0.1,0.01,0.001,0.0001,1", "values must lie in (0, 1)"),
        ("0.1,0.01,0.001", "need at least five values for a rate fit"),
    ],
)
def test_convergence_eps_outside_a_rate_fit_is_a_usage_error(eps, message, cfg_path, monkeypatch, capsys):
    def no_study(*args):
        raise AssertionError("convergence_study ran")

    monkeypatch.setattr(cli, "convergence_study", no_study)
    code, out, err = run(["convergence", "--config", cfg_path, "--eps", eps], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: flag --eps: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ["ibc-sweep", "--k", "2", "--modes", "0,3", "--eps", "0.1,0.01,0.001"],
        ["expansion-error", "--k", "2", "--modes", "0,3", "--eps", "0.1,0.01,0.001"],
        ["convergence", "--study", "ibc", "--modes", "0,3", "--eps", EPS5],
    ],
)
def test_sweeps_evaluate_one_shell_basis_per_mode(argv, cfg_path, monkeypatch, capsys):
    pairs, closures = [], []

    def counted(m, z):
        pairs.append(m)
        return eval_pair(m, z)

    eval_pair, shell_closure = modal._eval_pair, modal._shell_closure
    monkeypatch.setattr(modal, "_eval_pair", counted)
    monkeypatch.setattr(modal, "_shell_closure", lambda *args: closures.append(args) or shell_closure(*args))
    assert run([*argv, "--config", cfg_path], capsys)[0] == 0
    assert pairs == [0, 0, 0, 3, 3, 3]  # (J_m, H1_m) at r_in, r_source, r_out per mode
    assert len(closures) == 2  # one shell closure per mode, shared by every eps point


def test_empty_sweep_is_usage_error(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["sweep"] = {"variable": "mu_r", "values": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["skin-depth", "--config", str(path)], capsys)
    assert code == 2
    assert "sweep.values" in err


def test_missing_field_names_path(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["physical"]["sigma_minus_siemens_per_m"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["params", "--config", str(path)], capsys)
    assert code == 2
    assert "physical.sigma_minus_siemens_per_m" in err


def test_nonpositive_physics_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"]["omega_rad_per_s"] = -2.0
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["params", "--config", str(path)], capsys)
    assert code == 2
    assert "omega_rad_per_s" in err


@pytest.mark.parametrize(
    "table, field",
    [
        ([], "profile_table"),
        ({"count": "abc"}, "profile_table.count"),
        ({"count": 3.9}, "profile_table.count"),
        ({"count": 1}, "profile_table.count"),
        ({"max_depth_m": "x"}, "profile_table.max_depth_m"),
        ({"max_depth_m": -1.0}, "profile_table.max_depth_m"),
        ({"max_depth_m": math.inf}, "profile_table.max_depth_m"),
        ({"mode": 1.5}, "profile_table.mode"),
        (({"kind": "sphere", "radius": 1.0}, {"mode": 3}), "profile_table.mode"),
        (({"kind": "plane"}, {"mode": -2}), "profile_table.mode"),
    ],
)
def test_profile_table_config_errors_name_the_field(tmp_path, capsys, table, field):
    # a (surface, table) pair replaces the cylinder too: a nonzero mode off the cylinder was
    # ignored, and its table was that of mode 0
    surface, table = table if isinstance(table, tuple) else (BASE_CONFIG["surface"], table)
    cfg = dict(BASE_CONFIG, surface=surface, profile_table=table)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["profile-table", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config field {field}:")
    assert surface["kind"] in err or surface is BASE_CONFIG["surface"]


@pytest.mark.parametrize(
    "surface, depth, code",
    [
        ({"kind": "cylinder", "radius": 1.0}, 0.5, 2),
        ({"kind": "cylinder", "radius": 1.0}, 0.6, 2),
        ({"kind": "sphere", "radius": 2.0}, 1.0, 2),
        ({"kind": "plane"}, 1e6, 0),
    ],
)
def test_profile_table_depth_beyond_the_tubular_radius_is_a_config_error(tmp_path, capsys, surface, depth, code):
    # a depth at or past half the radius used to pass the config checks and end in exit 1
    cfg = dict(BASE_CONFIG, surface=surface, profile_table={"max_depth_m": depth, "count": 3})
    path = tmp_path / "table.json"
    path.write_text(json.dumps(cfg))
    got, out, err = run(["profile-table", "--config", str(path)], capsys)
    assert got == code
    if code == 2:
        assert out == ""
        bound = 0.5 * surface["radius"]
        assert err == (
            f"error: config field profile_table.max_depth_m: must be > 0 and below the surface's "
            f"tubular radius {bound!r} (got {depth!r})\n"
        )


@pytest.mark.parametrize("argv", [["ibc-sweep", "--eps", "0.1,0.01"], ["skin-depth"]])
def test_a_subnormal_source_amplitude_is_a_config_error(argv, tmp_path, capsys):
    # at 5e-324 the exact solve returned an all-zero conductor field and every norm read 0
    path = tmp_path / "faint.json"
    for amplitude, want in (([5e-324, 0.0], 2), ([1e-310, 0.0], 2), ([0.0, -1e-310], 2), ([sys.float_info.min, 0.0], 0)):
        cfg = dict(BASE_CONFIG, benchmark=dict(BASE_CONFIG["benchmark"], source_amplitude=amplitude))
        path.write_text(json.dumps(cfg))
        code, out, err = run([*argv, "--config", str(path)], capsys)
        assert code == want, (amplitude, err)
        if want == 2:
            assert out == "" and err == (
                "error: config field benchmark: source_amplitude must have modulus at least sys.float_info.min = "
                f"{sys.float_info.min!r}, got {complex(*amplitude)!r}\n"
            )


def test_an_infinite_outer_radius_is_a_config_error(tmp_path, capsys):
    # it used to pass the benchmark's checks and fail inside bessel with exit 1
    cfg = dict(BASE_CONFIG, benchmark=dict(BASE_CONFIG["benchmark"], R_out=math.inf))
    path = tmp_path / "open.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["ibc-sweep", "--config", str(path), "--eps", "0.1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: config field benchmark: r_out must be finite, got inf")


@pytest.mark.parametrize("amplitude", [[0.0, 0.0], [math.nan, 0.0], [math.inf, 0.0]])
@pytest.mark.parametrize(
    "argv", [["ibc-sweep", "--eps", "0.1,0.01"], ["convergence", "--eps", EPS5], ["skin-depth"]]
)
def test_a_zero_or_non_finite_source_amplitude_is_a_config_error(argv, amplitude, tmp_path, capsys):
    # a zero amplitude used to exit 1 (a ZeroDivisionError traceback in ibc-sweep), a non-finite one
    # with all-NaN residuals
    cfg = dict(BASE_CONFIG, benchmark=dict(BASE_CONFIG["benchmark"], source_amplitude=amplitude))
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run([*argv, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: config field benchmark: source_amplitude must be finite and nonzero")


@pytest.mark.parametrize("kind", ["cylinder", "sphere"])
@pytest.mark.parametrize("radius", ["1e309", "Infinity"])
@pytest.mark.parametrize("command", ["skin-depth", "profile-table"])
def test_an_infinite_surface_radius_is_a_config_error(command, radius, kind, tmp_path, capsys):
    # both parse to inf, which used to pass the config check and exit 1 from the surface constructor
    text = json.dumps(dict(BASE_CONFIG, surface={"kind": kind, "radius": 1.0}))
    path = tmp_path / "flat.json"
    path.write_text(text.replace('"radius": 1.0', f'"radius": {radius}'))
    code, out, err = run([command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: config field surface.radius: must be finite and > 0 (got inf)")


def test_skin_depth_rejects_a_benchmark_off_the_surface(tmp_path, capsys):
    # L_numeric would be measured at R_in = 1 and L_asymptotic at radius 2
    cfg = dict(BASE_CONFIG, surface={"kind": "cylinder", "radius": 2.0})
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["skin-depth", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "benchmark.R_in" in err and "surface.radius" in err


def test_format_mismatch_rejected(cfg_path, capsys):
    # --format never changed an output and is gone: it is a flag no command reads
    with pytest.raises(SystemExit) as info:
        main(["skin-depth", "--config", cfg_path, "--format", "csv"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_unreadable_config(capsys):
    code, _, err = run(["params", "--config", "/nonexistent/x.json"], capsys)
    assert code == 2
    assert "cannot read config" in err


# Reference: each command's flags, declared again flag by flag, as each handler reads them.
_IO_FLAGS = [
    ("--config", {"required": True, "help": "JSON run configuration"}),
    ("--out", {"default": None, "help": "output path (default: stdout)"}),
]
_K_FLAG = ("--k", {"type": int, "choices": (0, 1, 2), "default": None, "help": "impedance/truncation order"})
_SWEEP_FLAGS = [
    *_IO_FLAGS,
    _K_FLAG,
    ("--modes", {"type": _int_list, "default": None, "help": "comma-separated azimuthal modes"}),
    ("--eps", {"type": _float_list, "default": None, "help": "comma-separated eps values"}),
    ("--jobs", {"type": int, "default": 1, "help": "ignored; sweeps run serially"}),
]
_REFERENCE_FLAGS = {
    "params": _IO_FLAGS,
    "skin-depth": _IO_FLAGS,
    "profile-table": _IO_FLAGS,
    "ibc-factors": [*_IO_FLAGS, _K_FLAG],
    "ibc-sweep": _SWEEP_FLAGS,
    "expansion-error": _SWEEP_FLAGS,
    "convergence": [*_SWEEP_FLAGS, ("--study", {"choices": ("ibc", "expansion"), "default": "ibc"})],
}
# a value for every flag a command may read; a command's full argv gives each of its own flags one
_FLAG_VALUES = {"--k": "2", "--modes": "0,3", "--eps": "0.1,0.01", "--jobs": "2", "--study": "expansion"}


def _per_command_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magskin",
        description="Skin-effect asymptotics and impedance boundary conditions, validated on exact cylinder modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _REFERENCE_FLAGS.items():
        p = sub.add_parser(name)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _full_argv(command: str) -> list[str]:
    argv = [command, "--config", "c.json"]
    for flag, _ in _REFERENCE_FLAGS[command]:
        if flag in _FLAG_VALUES:
            argv += [flag, _FLAG_VALUES[flag]]
    return argv


def _help_text(parser: argparse.ArgumentParser, argv: list[str], capsys) -> str:
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    assert info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_shared_flag_parser_keeps_every_help_text(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    want = _help_text(_per_command_parser(), argv, capsys)
    assert _help_text(build_parser(), argv, capsys) == want
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_shared_flag_parser_parses_like_per_command_flags(command):
    argv = _full_argv(command)
    assert build_parser().parse_args(argv) == _per_command_parser().parse_args(argv)
    assert build_parser().parse_args(argv[:3]) == _per_command_parser().parse_args(argv[:3])


@pytest.mark.parametrize(
    "command, unread",
    [
        ("params", "--k 1"), ("skin-depth", "--eps 0.1"), ("profile-table", "--modes 0"),
        ("ibc-factors", "--eps 0.1"), ("ibc-sweep", "--study ibc"), ("expansion-error", "--study ibc"),
        ("convergence", "--format json"),
    ],
)
def test_a_command_takes_only_the_flags_it_reads(command, unread, cfg_path, capsys):
    # params --config c.json --eps abc exited 2 on the value of a flag params never read
    text = _help_text(build_parser(), [command, "--help"], capsys)
    listed = re.findall(r"^  (--[a-z]+)", text[text.index("options:"):], flags=re.M)
    assert listed == [flag for flag, _ in _REFERENCE_FLAGS[command]]
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg_path, *unread.split()])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {unread}" in out.err


@pytest.mark.parametrize(
    "command, message",
    [
        ("ibc-sweep", "error: flag --eps: need at least one value\n"),
        ("expansion-error", "error: flag --eps: need at least one value\n"),
        ("convergence", "error: flag --eps: need at least five values for a rate fit\n"),
    ],
)
def test_a_sweep_without_eps_is_a_usage_error(command, message, cfg_path, capsys):
    assert run([command, "--config", cfg_path, "--modes", "0,3"], capsys) == (2, "", message)


def test_main_builds_one_parser_per_process(cfg_path, monkeypatch, capsys):
    built = []

    def counted_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    try:
        assert run(["params", "--config", cfg_path], capsys)[0] == 0
        assert run(["ibc-factors", "--config", cfg_path, "--k", "1"], capsys)[0] == 0
        with pytest.raises(SystemExit):
            main(["skin-depth", "--config", cfg_path, "--k", "1"])
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_reused_parser_parses_each_argv_afresh(command):
    parser = cli._parser()
    full = _full_argv(command)
    for argv in (full, full[:3], full, full[:3]):
        assert parser.parse_args(argv) == build_parser().parse_args(argv)


# The README's example config, σ+ = 1e-2.
README_CONFIG = {
    **BASE_CONFIG,
    "benchmark": {**BASE_CONFIG["benchmark"], "source_amplitude": [1.0, 0.0]},
    "sweep": {"variable": "mu_r", "values": [100.0, 10000.0, 1000000.0]},
}

_NUMPY_GUARD = textwrap.dedent(
    """
    import sys
    from dataclasses import replace

    import magskin, magskin.cli
    from magskin import modal

    cfg, out, eps = sys.argv[1:]
    sweep = ["--k", "2", "--modes", "0,1,2", "--eps", eps]
    for command in magskin.cli._COMMANDS:
        flags = sweep if command in ("ibc-sweep", "expansion-error", "convergence") else []
        assert magskin.cli.main([command, "--config", cfg, "--out", out, *flags]) == 0, command
        assert "numpy" not in sys.modules, f"{command} imported numpy"
    b = modal.default_benchmark(mode=1, eps=0.1)
    low_loss = replace(b, cfg=replace(b.cfg, sigma_plus=1e-6))
    modal.shell_l2_error(modal.solve_exact(low_loss), modal.solve_ibc(low_loss, 1))
    assert "numpy" not in sys.modules, "the low-loss quadrature imported numpy"
    """
)


def test_no_command_imports_numpy(tmp_path):
    # nor does the low-loss shell-norm quadrature (σ+ below about 1e-3): magskin has no runtime dependency
    cfg = tmp_path / "readme.json"
    cfg.write_text(json.dumps(README_CONFIG))
    src = os.path.dirname(os.path.dirname(magskin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_GUARD, str(cfg), str(tmp_path / "out"), EPS5],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _write(tmp_path, cfg, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


def _strict_json(text: str):
    """json.loads that refuses the Infinity and NaN literals, which are not JSON."""
    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", ["params", "skin-depth"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("omega_rad_per_s", 1e200), ("eps0_farad_per_m", 1e200), ("sigma_minus_siemens_per_m", 1e-200),
        ("omega_rad_per_s", 1e-308), ("mu_plus_henry_per_m", 1e-308), ("omega_rad_per_s", 1e308),
        ("sigma_minus_siemens_per_m", 1e-308),
    ],
)
def test_extreme_physical_values_end_in_output_or_an_error_line(command, field, value, tmp_path, capsys):
    # params printed an OverflowError traceback, or exited 0 with "mu_r": Infinity, which is not JSON
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"][field] = value
    code, out, err = run([command, "--config", _write(tmp_path, cfg)], capsys)
    if code == 0:
        assert err == ""
        if command == "params":
            assert all(math.isfinite(v) for v in _strict_json(out).values())
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if field == "mu_plus_henry_per_m":
        assert code == 1 and "gives mu_r = inf" in err


def test_a_subnormal_shell_closure_is_one_error_line(tmp_path, capsys):
    # at omega = 1e-308, k_plus ~ 7e-156(1 + i) and the closure's N' at the wall and W
    # are subnormal: the exact solve warned "near-singular: resonance number 6.667e+154"
    # and then failed with four nan residuals
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"]["omega_rad_per_s"] = 1e-308
    path = _write(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["skin-depth", "--config", path], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "nan" not in err
    assert re.match(
        r"error: shell closure at k_plus = \(7\.07\d*e-156\+7\.07\d*e-156j\) divides by a zero or "
        r"subnormal N' at the wall = \(-4\.77\d*e-311\+0j\), W = \(-0-2\.02\d*e-311j\)$",
        err,
    ), err
    assert run(["params", "--config", path], capsys)[0] == 0


@pytest.mark.parametrize("omega", [1e20, 1e80, 1e100])
def test_an_error_of_zero_leaves_its_local_slope_empty(omega, tmp_path, capsys):
    # at eps 0.01 the exact and ibc2 wall amplitudes agree to the last bit; the sweep died
    # in log(total/prev) with a ZeroDivisionError traceback
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"]["omega_rad_per_s"] = omega
    code, out, err = run(["ibc-sweep", "--config", _write(tmp_path, cfg), "--k", "2", "--eps", "0.1,0.01"], capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["eps"], r["error_E"], r["local_slope"]) for r in rows][0] == ("0.01", "0", "")
    assert float(rows[1]["error_E"]) > 0 and rows[1]["local_slope"] == ""


def test_a_zero_error_later_in_a_sweep_leaves_its_local_slopes_empty(cfg_path, monkeypatch, capsys):
    # a 0 after a nonzero error ended in "error: math domain error"
    errors = [(1e-3, 1e-6), (1e-2, 0.0), (0.1, 1e-2)]
    monkeypatch.setattr(
        cli, "model_errors", lambda *args: [(eps, modal.ShellError(e, 0.0)) for eps, e in errors]
    )
    code, out, err = run(["ibc-sweep", "--config", cfg_path, "--eps", "0.1,0.01,0.001"], capsys)
    assert (code, err) == (0, "")
    assert [r["local_slope"] for r in csv.DictReader(io.StringIO(out))] == ["", "", ""]


def test_integer_config_values_read_as_floats(cfg_path, tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"].update(omega_rad_per_s=1, eps0_farad_per_m=1, mu_plus_henry_per_m=1, mu_minus_henry_per_m=100)
    cfg["benchmark"].update(R_in=1, R_out=2)
    for command in ("params", "skin-depth"):
        want = run([command, "--config", cfg_path], capsys)
        assert want[0] == 0
        assert run([command, "--config", _write(tmp_path, cfg)], capsys) == want


def test_a_non_finite_physical_value_is_a_usage_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"]["omega_rad_per_s"] = math.inf  # written as Infinity, which json.load accepts
    code, out, err = run(["params", "--config", _write(tmp_path, cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: config field physical: omega must be a finite positive number, got inf")


def test_an_unknown_surface_kind_is_a_usage_error(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, surface={"kind": "torus", "radius": 1.0})
    code, _, err = run(["skin-depth", "--config", _write(tmp_path, cfg)], capsys)
    assert code == 2
    assert err.startswith("error: config field surface.kind: unknown kind 'torus'")


@pytest.mark.parametrize("amplitude", [[1.0], [1.0, 0.0, 0.0], "1+0j", [1.0, True], 1.0])
def test_a_source_amplitude_that_is_not_re_im_is_a_usage_error(amplitude, tmp_path, capsys):
    cfg = dict(BASE_CONFIG, benchmark=dict(BASE_CONFIG["benchmark"], source_amplitude=amplitude))
    code, _, err = run(["ibc-sweep", "--config", _write(tmp_path, cfg), "--eps", "0.1"], capsys)
    assert code == 2
    assert err.startswith("error: config field benchmark.source_amplitude: expected [re, im]")


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"variable": "kappa", "values": [1.0]}, "sweep.variable: unknown variable 'kappa'"),
        ({"variable": "mu_r", "values": [1e4, 100.0]}, "sweep.values: values must be sorted ascending"),
        ({"variable": "mu_r", "values": [100.0, -1.0]}, "sweep.values: all values must be positive numbers"),
        ({"variable": "mu_r", "values": [0, 100.0]}, "sweep.values: all values must be positive numbers"),
    ],
)
def test_an_unknown_unsorted_or_non_positive_sweep_is_a_usage_error(sweep, message, tmp_path, capsys):
    cfg = dict(BASE_CONFIG, sweep=sweep)
    code, out, err = run(["skin-depth", "--config", _write(tmp_path, cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config field {message}")


@pytest.mark.parametrize(
    "variable, field", [("sigma_minus", "sigma_minus_siemens_per_m"), ("omega", "omega_rad_per_s")]
)
def test_sigma_minus_and_omega_sweeps_are_the_rows_of_their_configs(variable, field, tmp_path, capsys):
    values = [0.5, 2.0, 8.0]
    cfg = dict(BASE_CONFIG, surface={"kind": "plane"}, sweep={"variable": variable, "values": values})
    code, out, _ = run(["skin-depth", "--config", _write(tmp_path, cfg)], capsys)
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        single = json.loads(json.dumps(dict(BASE_CONFIG, surface={"kind": "plane"})))
        single["physical"][field] = value
        code, one, _ = run(["skin-depth", "--config", _write(tmp_path, single, "one.json")], capsys)
        assert code == 0
        assert one.splitlines() == [header, row]


def test_cylinder_skin_depth_without_a_benchmark_solves_the_default_shell(cfg_path, tmp_path, capsys):
    # BASE_CONFIG's benchmark is the default one: R_in = radius, R_out = 2*radius, r_source = 1.5*radius
    cfg = {key: value for key, value in BASE_CONFIG.items() if key != "benchmark"}
    code, out, _ = run(["skin-depth", "--config", _write(tmp_path, cfg)], capsys)
    assert (code, out) == run(["skin-depth", "--config", cfg_path], capsys)[:2]
    assert code == 0


@pytest.mark.parametrize("flag, value, message", [("--eps", "0.1,x", "bad float list '0.1,x'"), ("--modes", "0,1.5", "bad integer list '0,1.5'")])
def test_a_malformed_flag_list_is_a_usage_error(flag, value, message, cfg_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ibc-sweep", "--config", cfg_path, "--eps", "0.1", flag, value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message", [("{not json", "config is not valid JSON"), ("[1, 2]", "config root must be a JSON object")]
)
def test_a_config_that_is_not_a_json_object_is_a_usage_error(text, message, tmp_path, capsys):
    code, out, err = run(["params", "--config", _write(tmp_path, text)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_a_failed_solve_exits_1_with_an_error_line(cfg_path, capsys):
    # mode 150 fails every cylinder solve: its inner H1 coefficient underflows to 0
    code, out, err = run(["ibc-sweep", "--config", cfg_path, "--modes", "150", "--eps", "0.1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: exact solve violated its conditions") and err.count("\n") == 1


@pytest.mark.parametrize(
    "physical, name",
    [
        # omega*mu_minus underflows to 0: a ZeroDivisionError traceback
        ({"omega_rad_per_s": 1e-200, "mu_minus_henry_per_m": 1e-198}, "omega_mu_minus = 0.0"),
        # sigma_minus/omega overflows: "scalar_part_re": Infinity, exit 0
        ({"omega_rad_per_s": 1e-100, "sigma_plus_siemens_per_m": 1e155, "sigma_minus_siemens_per_m": 1e215},
         "scalar_part_modulus = inf"),
        # found on a longer run of the contract's domain below: omega*mu_minus is subnormal,
        # and "curvature_coeff_im" was -Infinity
        ({"omega_rad_per_s": 2.7513707519809227e-163, "mu_plus_henry_per_m": 5.802487654594271e-155,
          "mu_minus_henry_per_m": 3.7973992991629174e-152}, "curvature_part_modulus = inf"),
    ],
)
def test_ibc_factors_at_parts_that_are_not_representable_is_one_error_line(physical, name, tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physical"].update(physical)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mu_minus < mu_plus", UserWarning)  # mu_minus = 1e-198 has mu_r < 1
        code, out, err = run(["ibc-factors", "--config", _write(tmp_path, cfg)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: PhysicalConfig(") and f"gives {name};" in err and err.count("\n") == 1


def test_a_magnetic_shell_norm_beyond_the_float_range_is_one_error_line(tmp_path, capsys):
    # found on a longer run of the contract's domain below: omega*mu_plus = 6.9e-155 puts error_H
    # itself past the float range, not only its square, so the sweep still ends in one error line
    cfg = {
        "physical": {
            "omega_rad_per_s": 2.01659435604281e-104, "eps0_farad_per_m": 5.517065392981834e+21,
            "mu_plus_henry_per_m": 3.399311821613128e-51, "mu_minus_henry_per_m": 1.669951315973021e-45,
            "sigma_plus_siemens_per_m": 8.457115239172947e-09, "sigma_minus_siemens_per_m": 0.00010772087740330593,
        },
        "benchmark": {"R_in": 0.6070364053359516, "R_out": 0.6662835637999674, "r_source": 0.6522537973163021, "mode": 0},
    }
    with pytest.warns(UserWarning, match="near-singular"):
        code, out, err = run(
            ["expansion-error", "--config", _write(tmp_path, cfg), "--k", "1", "--eps", "0.1,0.01"], capsys
        )
    assert (code, out) == (1, "")
    assert err.startswith("error: magnetic shell error: the root of squared norm ") and err.endswith(" overflows\n")


def test_a_large_source_amplitude_scales_the_sweep(tmp_path, capsys):
    # at amplitude 1e160 the squares overflowed: "shell norms of t*N ... overflow", exit 1
    rows = {}
    for amplitude in (1.0, 1e160):
        cfg = {**BASE_CONFIG, "benchmark": {**BASE_CONFIG["benchmark"], "source_amplitude": [amplitude, 0.0]}}
        code, out, err = run(["ibc-sweep", "--config", _write(tmp_path, cfg), "--k", "1", "--eps", "0.1,0.01"], capsys)
        assert (code, err) == (0, "")
        rows[amplitude] = list(csv.DictReader(io.StringIO(out)))
    for small, large in zip(rows[1.0], rows[1e160]):
        for column in ("error_E", "error_H"):
            assert abs(float(large[column]) / (1e160 * float(small[column])) - 1.0) <= 1e-12
        assert abs(float(large["local_slope"] or 0) - float(small["local_slope"] or 0)) <= 1e-12


def test_a_conductor_amplitude_that_cancels_to_0_is_a_named_error(tmp_path, capsys):
    # the contract's config 1597 at seed 0, near the perfect-conductor limit: u(R_in) cancels to 0j.  The
    # conductor field read 0 everywhere, conductor_l2_norm -0.0, and skin-depth failed on "sampler(0) must
    # be positive"; the sweeps read shell amplitudes alone and succeed
    cfg = {
        "physical": {
            "omega_rad_per_s": 2.0744389822979566e28, "eps0_farad_per_m": 4178190559.8326635,
            "mu_plus_henry_per_m": 3.137099720142819e-57, "mu_minus_henry_per_m": 6.393336058405561e-51,
            "sigma_plus_siemens_per_m": 4.62456618362305e-82, "sigma_minus_siemens_per_m": 1.1480536826536033e183,
        },
        "surface": {"kind": "cylinder", "radius": 1.3079905821091362},
        "benchmark": {"R_in": 1.3079905821091362, "R_out": 2.01669943735664, "r_source": 1.573531586756583, "mode": 0},
    }
    bench = cli.load_benchmark(cfg, load_physical(cfg))
    sol = modal.solve_exact(bench)
    assert sol.conductor_amplitude == 0
    cancelled = "exact solution's conductor amplitude u(r_in) cancelled to 0: no conductor field"
    for call in (lambda: sol.u(bench.r_in), lambda: sol.u(0.5 * bench.r_in), lambda: sol.u_prime(0.5 * bench.r_in),
                 lambda: modal.conductor_l2_norm(sol)):
        with pytest.raises(modal.SolverError, match=re.escape(cancelled)):
            call()
    path = _write(tmp_path, cfg)
    assert run(["skin-depth", "--config", path], capsys) == (1, "", f"error: {cancelled}\n")
    for command in ("ibc-sweep", "expansion-error"):
        code, out, err = run([command, "--config", path, "--k", "2", "--eps", "0.1,0.01"], capsys)
        assert (code, err) == (0, "") and out.count("\n") == 3, (command, out)


# The CLI contract over a fixed seeded config space: every command either exits 0 with every
# printed number finite, or exits 1 or 2 with exactly one stderr line starting "error: ".
_CONTRACT_COMMANDS = (
    "params", "skin-depth", "profile-table", "ibc-factors --k 1", "ibc-factors --k 2",
    "ibc-sweep", "expansion-error", "convergence",
)
_CONTRACT_MODES = (0, 1, 3, 10, 60, 140)
_JSON_COMMANDS = ("params", "ibc-factors", "convergence")


def _contract_case(rng: random.Random, command: str) -> tuple[dict, list[str]]:
    """A config from the domain, never to be narrowed, and the argv that runs ``command`` on it.

    Each physical value is log-uniform in [1e-30, 1e30] or [1e-300, 1e300] (even odds), and
    mu_minus is mu_plus times a log-uniform factor in [1, 1e8]; the shell radii are random.
    """
    def physical_value() -> float:
        span = rng.choice((30, 300))
        return 10.0 ** rng.uniform(-span, span)

    names = ("omega_rad_per_s", "eps0_farad_per_m", "mu_plus_henry_per_m", "sigma_plus_siemens_per_m",
             "sigma_minus_siemens_per_m")
    physical = {name: physical_value() for name in names}
    physical["mu_minus_henry_per_m"] = physical["mu_plus_henry_per_m"] * 10.0 ** rng.uniform(0, 8)
    r_in = 10.0 ** rng.uniform(-3, 3)
    r_out = r_in * (1.0 + 10.0 ** rng.uniform(-2, 1))
    r_source = r_in + rng.uniform(0.05, 0.95) * (r_out - r_in)
    kind = rng.choice(("plane", "cylinder", "sphere"))
    mode = rng.choice(_CONTRACT_MODES)
    cfg = {
        "physical": physical,
        "surface": {"kind": kind} if kind == "plane" else {"kind": kind, "radius": r_in},
        "benchmark": {"R_in": r_in, "R_out": r_out, "r_source": r_source, "mode": mode},
    }
    argv = command.split()
    if argv[0] in ("ibc-sweep", "expansion-error"):
        argv += ["--k", str(rng.randrange(3)), "--modes", str(mode), "--eps", "0.1,0.01"]
    elif argv[0] == "convergence":
        argv += ["--study", rng.choice(("ibc", "expansion")), "--k", str(rng.randrange(3)), "--modes", str(mode),
                 "--eps", EPS5]
    return cfg, argv


def _printed_numbers(command: str, text: str) -> list[float]:
    if command in _JSON_COMMANDS:
        stack, numbers = [_strict_json(text)], []
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                stack += node.values()
            elif isinstance(node, list):
                stack += node
            elif isinstance(node, float):
                numbers.append(node)
        return numbers
    return [float(cell) for row in text.splitlines()[1:] for cell in row.split(",") if cell]


def test_every_command_exits_0_with_finite_numbers_or_prints_one_error_line(tmp_path, capsys):
    # 300 seeded cases, the eight argv shapes in turn.  Before impedance_operator checked its
    # parts, ibc-factors printed Infinity or raised ZeroDivisionError on 4 of them.  The solves'
    # near-singular warnings are diagnostics on their own channel: recorded, and held to that message
    rng = random.Random(0)
    path = str(tmp_path / "cfg.json")
    broken = []
    for case in range(300):
        cfg, argv = _contract_case(rng, _CONTRACT_COMMANDS[case % len(_CONTRACT_COMMANDS)])
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code, out, err = run([*argv, "--config", path], capsys)
            except Exception as exc:  # any exception escaping main is a traceback on the command line
                code, out, err = f"raised {exc!r}", "", ""
        assert all("solve near-singular: resonance number" in str(w.message) for w in caught), (case, argv, cfg)
        if code == 0:
            try:
                ok = err == "" and all(math.isfinite(v) for v in _printed_numbers(argv[0], out))
            except ValueError:  # the Infinity and NaN literals
                ok = False
        else:
            ok = code in (1, 2) and out == "" and err.startswith("error: ") and err.count("\n") == 1
        if not ok:
            broken.append((case, argv, code, err, cfg))
    assert not broken, broken[:3]


_API_RADII = (0.0, 0.3, 0.9, 0.99, 1.0 - 1e-6)  # conductor radii over R_in


def _finite_result(value) -> bool:
    """Whether an API result is finite: a number, derived params whose every scalar is, or a solution
    within RESIDUAL_TOL of its conditions whose wall amplitude and shell coefficients are."""
    if isinstance(value, DerivedParams):
        numbers = [getattr(value, f.name) for f in fields(value) if f.name != "config"]
    elif isinstance(value, modal.ModalSolution):
        if not max(value.residuals.values()) <= modal.RESIDUAL_TOL:
            return False
        numbers = [value.wall_amplitude, *value.shell_inner, *value.shell_outer]
    else:
        numbers = [value]
    return all(cmath.isfinite(v) for v in numbers)


def _api_failures(doc: dict) -> tuple[bool, list[str]]:
    """Whether the exact solve of ``doc``'s benchmark returned, and each API call on it that neither
    returned a finite result (``_finite_result``) nor raised a named error (SolverError, or ValueError
    as BesselDomainError and the input checks are; SkinDepthError too for the skin depth)."""
    named = (modal.SolverError, ValueError)
    try:
        cfg = load_physical(doc)
        bench = cli.load_benchmark(doc, cfg)
    except named:
        return False, []
    failures = []

    def check(name, call, errors=named):
        """call()'s result where it is finite, else None, with a failure unless it raised one of errors."""
        try:
            value = call()
        except errors:
            return None
        except Exception as exc:
            failures.append(f"{name} raised {exc!r}")
            return None
        if not _finite_result(value):
            failures.append(f"{name} = {value!r}")
            return None
        return value

    check("derive_params", lambda: derive_params(cfg))
    for k in range(3):
        check(f"solve_ibc(b, {k})", lambda: modal.solve_ibc(bench, k))
    check("truncated_expansion(b, 2)", lambda: modal.truncated_expansion(bench, 2))
    sol = check("solve_exact", lambda: modal.solve_exact(bench))
    if sol is None:
        return False, failures

    def skin_depth() -> float:
        dp = bench.params
        trace = skin.DecayTrace(
            sampler=lambda h: abs(sol.u(bench.r_in - h)), max_depth=min(10.0 * dp.ell_phi, 0.95 * bench.r_in)
        )
        return skin.skin_depth_numeric(trace, dp.ell_phi)

    for f in _API_RADII:
        check(f"u({f}*R_in)", lambda: sol.u(f * bench.r_in))
        check(f"u_prime({f}*R_in)", lambda: sol.u_prime(f * bench.r_in))
    check("conductor_l2_norm", lambda: modal.conductor_l2_norm(sol))
    # a trace whose surface value is not positive is rejected by DecayTrace itself, with ValueError
    check("skin_depth_numeric", skin_depth, (*named, skin.SkinDepthError))
    return True, failures


def test_every_api_call_on_the_contract_domain_is_finite_or_a_named_error():
    # the CLI contract's 300 seeded configs, unnarrowed, through the API: derive_params, solve_ibc at
    # k = 0, 1, 2 and truncated_expansion(b, 2) (288 of their 1200 solves return), solve_exact, u and u'
    # at five conductor radii, conductor_l2_norm and the skin depth on the exact trace.  Before the conductor
    # field read 0 for a zero value, u(0) and u'(0) raised a bare OverflowError on 1 of them (9 of 2000);
    # Taylor pieces narrower than a rounding step of r read inf or nan at 0.3*R_in on 10 (75 of 2000)
    rng = random.Random(0)
    solved, broken = 0, []
    for case in range(300):
        doc, _ = _contract_case(rng, _CONTRACT_COMMANDS[case % len(_CONTRACT_COMMANDS)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            returned, failures = _api_failures(doc)
        assert all("solve near-singular: resonance number" in str(w.message) for w in caught), (case, doc)
        solved += returned
        if failures:
            broken.append((case, failures, doc))
    assert not broken, broken[:3]
    assert solved >= 60, solved  # 75 of the 300 solve
