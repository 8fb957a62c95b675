import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

import magskin
from magskin import cli, modal
from magskin.cli import _COMMANDS, _float_list, _int_list, build_parser, load_physical, main
from magskin.geometry import Surface, TangentVector
from magskin.modal import fit_convergence
from magskin.params import derive_params
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
    pairs = []

    def counted(m, z):
        pairs.append(m)
        return eval_pair(m, z)

    eval_pair = modal._eval_pair
    monkeypatch.setattr(modal, "_eval_pair", counted)
    assert run([*argv, "--config", cfg_path], capsys)[0] == 0
    assert pairs == [0, 0, 0, 3, 3, 3]  # (J_m, H1_m) at r_in, r_source, r_out per mode


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
    ],
)
def test_profile_table_config_errors_name_the_field(tmp_path, capsys, table, field):
    cfg = dict(BASE_CONFIG, profile_table=table)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["profile-table", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config field {field}:")


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
    code, _, err = run(["skin-depth", "--config", cfg_path, "--format", "json"], capsys)
    assert code == 2
    assert "emits csv" in err


def test_unreadable_config(capsys):
    code, _, err = run(["params", "--config", "/nonexistent/x.json"], capsys)
    assert code == 2
    assert "cannot read config" in err


def _per_command_parser() -> argparse.ArgumentParser:
    """Reference: the parser with the common flags declared again on every subcommand."""
    parser = argparse.ArgumentParser(
        prog="magskin",
        description="Skin-effect asymptotics and impedance boundary conditions, validated on exact cylinder modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--k", type=int, choices=(0, 1, 2), default=None,
                       help="impedance/truncation order")
        p.add_argument("--modes", type=_int_list, default=None, help="comma-separated azimuthal modes")
        p.add_argument("--eps", type=_float_list, default=None, help="comma-separated eps values")
        p.add_argument("--jobs", type=int, default=1, help="ignored; sweeps run serially")
        if name == "convergence":
            p.add_argument("--study", choices=("ibc", "expansion"), default="ibc")
    return parser


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
    argv = [command, "--config", "c.json", "--k", "2", "--modes", "0,3", "--eps", "0.1,0.01", "--jobs", "2"]
    assert build_parser().parse_args(argv) == _per_command_parser().parse_args(argv)
    assert build_parser().parse_args(argv[:3]) == _per_command_parser().parse_args(argv[:3])


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
        assert run(["skin-depth", "--config", cfg_path, "--format", "json"], capsys)[0] == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_reused_parser_parses_each_argv_afresh(command):
    parser = cli._parser()
    full = [command, "--config", "c.json", "--k", "2", "--modes", "0,3", "--eps", "0.1,0.01", "--jobs", "2"]
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
    assert "numpy" in sys.modules, "the low-loss quadrature did not import numpy"
    """
)


def test_no_command_imports_numpy(tmp_path):
    # numpy is imported only by the low-loss shell-norm quadrature (σ+ below about 1e-3)
    cfg = tmp_path / "readme.json"
    cfg.write_text(json.dumps(README_CONFIG))
    src = os.path.dirname(os.path.dirname(magskin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_GUARD, str(cfg), str(tmp_path / "out"), EPS5],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
