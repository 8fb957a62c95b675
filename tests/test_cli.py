import argparse
import csv
import io
import json
import math

import pytest

from magskin import cli
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


def test_parallel_sweep_matches_serial(cfg_path, tmp_path):
    args = ["ibc-sweep", "--config", cfg_path, "--k", "1", "--modes", "0,1",
            "--eps", "0.1,0.01"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
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
