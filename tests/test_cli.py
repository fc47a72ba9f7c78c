import json
import math
import shlex
import subprocess
import sys

import numpy as np
import pytest

from ellharm.cli import main


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "ellharm.cli", *args],
                          capture_output=True, text=True, **kw)


def test_transform_points_csv():
    res = run_cli(["transform", "--points", "0.3,0.2,0.1;1,0.5,0.25"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("config_hash" in ln for ln in header)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].split(",")[:3] == ["x", "y", "z"]
    assert len(data) == 3
    # round-trip residual is the last column and tiny
    assert float(data[1].split(",")[-1]) < 1e-6


def test_transform_brick_row_count():
    res = run_cli(["transform", "--brick", "2", "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["rows"]) == 8 * 2 ** 3
    assert doc["config"]["subcommand"] == "transform"
    assert all(r["roundtrip_residual"] < 1e-6 for r in doc["rows"])


def test_global_flags_accepted_before_and_after_subcommand():
    a = run_cli(["--semiaxes", "3,2,1", "transform", "--points", "0.5,0.5,0.5"])
    b = run_cli(["transform", "--semiaxes", "3,2,1", "--points", "0.5,0.5,0.5"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_lame_json_diagnostics():
    res = run_cli(["lame", "--degree", "1", "--p", "1", "--s", "2.0,2.5",
                   "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    # E_1^1(s) = s
    assert doc["rows"][0]["E"] == pytest.approx(2.0, rel=1e-12)
    assert doc["diagnostics"]["class"] == "K"


def test_gamma_monopole_value():
    res = run_cli(["gamma", "--order", "1", "--format", "json"])
    doc = json.loads(res.stdout)
    assert doc["rows"][0] == pytest.approx(
        {"n": 0, "p": 1, "gamma": 4 * 3.141592653589793,
         "error_estimate": doc["rows"][0]["error_estimate"]}, rel=1e-8)
    assert len(doc["rows"]) == 4  # (0,1) + (1,1..3)


def test_coulomb_error_decreases():
    res = run_cli(["coulomb", "--source", "0,0,0.5", "--field", "0,0,2",
                   "--order", "8", "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    errs = [r["abs_error"] for r in doc["rows"]]
    assert errs[-1] < errs[0]
    assert "cancellation_degrees" in doc["diagnostics"]


def test_coulomb_cancellation_flag_at_degree_16():
    res = run_cli(["coulomb", "--source", "0,0,0.5", "--field", "0,0,2",
                   "--order", "16", "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["diagnostics"]["cancellation_degrees"] == [16]
    assert [r["n"] for r in doc["rows"] if r["cancellation_flag"]] == [16]


def test_solvation_with_charge_file(tmp_path):
    cf = tmp_path / "charges.txt"
    cf.write_text("# a comment\n0 0 0 1.0\n\n0.1 0.1 0.1 -0.5  # inline\n")
    res = run_cli(["solvation", "--charges", str(cf), "--order", "6",
                   "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["rows"][0]["energy_kcal_per_mol"] < 0
    assert doc["units"].startswith("kcal/mol")


def test_born_limit_short_sweep():
    res = run_cli(["born-limit", "--deltas", "1,0.1", "--order", "4",
                   "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["rows"][0]["deviation"] > doc["rows"][1]["deviation"]


def test_bem_validate_small(tmp_path):
    cf = tmp_path / "charges.txt"
    cf.write_text("0 0 0 1.0\n")
    res = run_cli(["bem-validate", "--charges", str(cf), "--order", "4",
                   "--refinements", "0,1,2", "--format", "json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert [r["panels"] for r in doc["rows"]] == [20, 80, 320]
    assert "richardson_limit_kcal" in doc["diagnostics"]


@pytest.mark.parametrize("refinements", ["1,1,1", "2,1,0"])
def test_bem_validate_rejects_non_increasing_refinements(tmp_path, capsys, refinements):
    cf = tmp_path / "charges.txt"
    cf.write_text("0 0 0 1.0\n")
    code = main(["--semiaxes", "15,12,10", "bem-validate", "--charges", str(cf),
                 "--order", "2", "--refinements", refinements])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "strictly increase" in err["message"]


def test_bem_validate_singular_system_exits_3(tmp_path, capsys, monkeypatch):
    import ellharm.bem
    monkeypatch.setattr(ellharm.bem, "assemble_influence_matrix",
                        lambda cen, nrm, area, diag, rows: np.ones((len(rows), len(cen))))
    cf = tmp_path / "charges.txt"
    cf.write_text("0 0 0 1.0\n")
    code = main(["--semiaxes", "15,12,10", "bem-validate", "--charges", str(cf),
                 "--order", "2", "--refinements", "0,1,2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SingularSystem"
    assert "singular at 20 panels" in err["message"]


def test_out_file_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["gamma", "--order", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_exit_code_validation_errors(tmp_path):
    # degenerate semiaxes
    res = run_cli(["--semiaxes", "1,1,1", "gamma", "--order", "1"])
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert err["error"] == "DegenerateEllipsoid"
    # missing charge file
    res = run_cli(["solvation", "--charges", str(tmp_path / "nope.txt")])
    assert res.returncode == 2
    # malformed charge file
    cf = tmp_path / "bad.txt"
    cf.write_text("1 2 3\n")
    res = run_cli(["solvation", "--charges", str(cf)])
    assert res.returncode == 2
    # charge outside the ellipsoid
    cf2 = tmp_path / "outside.txt"
    cf2.write_text("5 0 0 1.0\n")
    res = run_cli(["solvation", "--charges", str(cf2), "--order", "2"])
    assert res.returncode == 2
    # bad usage (unknown subcommand)
    res = run_cli(["frobnicate"])
    assert res.returncode == 2


@pytest.mark.parametrize("args, message", [
    (["solvation", "--charges", "{nan_line}"], "nan_line:2: non-finite field"),
    (["solvation", "--charges", "{inf_line}"], "inf_line:2: non-finite field"),
    (["solvation", "--charges", "{good}", "--eps1", "nan"], "permittivities"),
    (["transform", "--points", "1,1,1;nan,1,1"], "--points entry must be finite"),
    (["bem-validate", "--charges", "{good}", "--eps2", "inf"], "permittivities"),
    (["lame", "--degree", "1", "--p", "1", "--s", "2.0,nan"], "--s values must be finite"),
])
def test_non_finite_input_exits_2(tmp_path, capsys, args, message):
    files = {"nan_line": "1 1 1 1\nnan 0 0 1\n", "inf_line": "1 1 1 1\n1 1 1 inf\n",
             "good": "1 1 1 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {name: str(tmp_path / name) for name in files}
    code = main(["--semiaxes", "15,12,10", *(a.format(**paths) for a in args)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("ValidationError", "ValueError")
    assert message in err["message"]


@pytest.mark.parametrize("args", [
    ["solvation", "--semiaxes", "15,12,10", "--charges", "{charges}"],
    ["coulomb", "--source", "0,0,0.5", "--field", "0,0,2"],
    ["gamma"],
    ["born-limit"],
])
def test_negative_order_exits_2(tmp_path, capsys, args):
    (tmp_path / "charges").write_text("1 1 1 1\n")
    code = main([a.format(charges=tmp_path / "charges") for a in args] + ["--order", "-1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "OrderOutOfRange"


def test_gamma_quad_order_is_no_option_exits_2_before_any_rule(monkeypatch):
    import ellharm.harmonics
    orders = []
    monkeypatch.setattr(ellharm.harmonics, "gauss_legendre",
                        lambda order, *args: orders.append(order))
    assert main(["gamma", "--order", "2", "--quad-order", "64"]) == 2
    assert orders == []


@pytest.mark.parametrize("args, code, error", [
    (["--semiaxes", "2,1.5,1", "transform", "--points", "1e30,0,0"], 3, "RoundTripFailure"),
    (["--semiaxes", "2,1.5,1", "transform", "--points", "1e160,0,0"], 3, "RoundTripFailure"),
    (["--semiaxes", "1,3e-12,1e-12", "transform", "--points", "0.5,1e-12,1e-12"],
     2, "DegenerateEllipsoid"),
    # roots that leave the coordinate ranges in the round trip
    (["--semiaxes", "15,12,10", "transform", "--points", "5e25,1,1"], 3, "RoundTripFailure"),
    # semiaxes whose squares overflow
    (["--semiaxes", "1e200,5e199,1e199", "transform", "--points", "1,1,1"],
     2, "DegenerateEllipsoid"),
    # the cubic's Q^3 underflows to 0 at lengths below ~1e-26
    (["--semiaxes", "1e-100,5e-101,1e-101", "transform", "--points", "1e-101,1e-101,1e-101"],
     3, "RoundTripFailure"),
])
def test_far_point_or_cancelling_semiaxes_exit_with_a_json_error(capsys, args, code, error):
    assert main(args) == code
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("charges, extra, error, message", [
    # (x / a) ** 2 overflows
    ("1 1 1 1\n1e160 0 0 1\n", [], "ChargeOutsideEllipsoid", "not strictly inside"),
    # eps1 * eps2 underflows to 0
    ("1 1 1 1\n", ["--eps1", "1e-200", "--eps2", "2e-200"], "ValueError", "float64 range"),
], ids=["far-charge", "tiny-permittivities"])
def test_far_charge_or_tiny_permittivities_exit_2_with_one_json_line(
        tmp_path, charges, extra, error, message):
    (tmp_path / "charges.txt").write_text(charges)
    res = run_cli(["--semiaxes", "15,12,10", "solvation", "--charges",
                   str(tmp_path / "charges.txt"), "--order", "2", *extra])
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error and message in err["message"]


def test_overflowing_lame_matrix_exits_2_with_one_json_line():
    # build_tridiagonal's entries scale with h^2, so lower*upper overflows
    res = run_cli(["lame", "--semiaxes", "1e100,5e99,1e99", "--degree", "4", "--p", "1",
                   "--s", "1e99"])
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "DegenerateEllipsoid"
    assert "(1e+100, 5e+99, 1e+99)" in err["message"] and "degree-4" in err["message"]


def test_exit_code_numerical_error():
    # a field point with smaller lambda than the source is an ordering
    # violation (validation), but a field point exactly on the focal ellipse
    # branch cut triggers the singular-lower-limit numerical guard
    res = run_cli(["coulomb", "--source", "0,0,0.9", "--field", "0,0,0.5",
                   "--order", "2"])
    assert res.returncode == 2  # OrderingViolation is a validation error


def test_console_script_help():
    res = run_cli(["--help"])
    assert res.returncode == 0
    assert "transform" in res.stdout and "bem-validate" in res.stdout


# the README's commands with the config (in key order), config_hash, columns
# and units that their JSON output carries; the numbers are not pinned
README_COMMANDS = [
    ('transform --points "0.3,0.2,0.1;1,0.5,0.25"',
     {"semiaxes": "2,1.5,1", "subcommand": "transform", "brick": None,
      "points": "0.3,0.2,0.1;1,0.5,0.25"}, "7cd1ed4cd4af96aa",
     "x y z lambda mu nu s_lambda s_mu s_nu roundtrip_residual",
     "lengths in input units (Angstrom)"),
    ("lame --degree 2 --p 3 --s 2.0,2.5,3.0",
     {"semiaxes": "2,1.5,1", "subcommand": "lame", "degree": 2, "p": 3, "s": "2.0,2.5,3.0"},
     "c7e39bceedfefdf8", "s E", "dimensionless (leading coefficient unity)"),
    ('harmonic --degree 1 --p 1 --points "0.5,0.5,0.5"',
     {"semiaxes": "2,1.5,1", "subcommand": "harmonic", "degree": 1, "p": 1,
      "points": "0.5,0.5,0.5"}, "9a3ade284e4ba4da", "x y z interior exterior",
     "harmonics dimensionless in Angstrom^n scaling"),
    ("gamma --order 4",
     {"semiaxes": "2,1.5,1", "subcommand": "gamma", "order": 4}, "eefc2f0c328e4be1",
     "n p gamma error_estimate", "Angstrom^(2n+1) scaling per index"),
    ("coulomb --source 0,0,0.5 --field 0,0,2 --order 12",
     {"semiaxes": "2,1.5,1", "subcommand": "coulomb", "source": "0,0,0.5",
      "field": "0,0,2", "order": 12}, "fc5acd4a41e03a01",
     "n partial_sum abs_error max_absE max_absF min_gamma cancellation_flag",
     "potential in 1/Angstrom (unit charges)"),
    ("solvation --semiaxes 15,12,10 --charges charges.txt",
     {"semiaxes": "15,12,10", "subcommand": "solvation", "charges": "charges.txt",
      "eps1": 4.0, "eps2": 80.0, "order": 12}, "3f64ab749315acec",
     "N energy_kcal_per_mol energy_e2_per_angstrom", "kcal/mol and e^2/Angstrom"),
    ("born-limit --deltas 1,0.1,0.01,0.001",
     {"subcommand": "born-limit", "deltas": "1,0.1,0.01,0.001", "eps1": 4.0,
      "eps2": 80.0, "order": 12}, "0162f247c52fca5c",
     "delta energy_kcal_per_mol born_kcal_per_mol deviation", "kcal/mol"),
    ("bem-validate --semiaxes 15,12,10 --charges charges.txt --refinements 1,2,3,4",
     {"semiaxes": "15,12,10", "subcommand": "bem-validate", "charges": "charges.txt",
      "eps1": 4.0, "eps2": 80.0, "order": 12, "refinements": "1,2,3,4"},
     "f8331fd087fb36dd", "refinement panels energy_kcal_per_mol deviation", "kcal/mol"),
]


@pytest.mark.parametrize("command, config, config_hash, columns, units", README_COMMANDS,
                         ids=[c[0].split()[0] for c in README_COMMANDS])
def test_readme_command_keeps_its_json_header(tmp_path, monkeypatch, capsys, command,
                                              config, config_hash, columns, units):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "charges.txt").write_text("3 4 5 1.0\n")
    assert main(shlex.split(command) + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["config"].items()) == list(config.items())
    assert doc["config_hash"] == config_hash
    assert doc["columns"] == columns.split()
    assert doc["units"] == units
    assert [list(row) for row in doc["rows"]] == [doc["columns"]] * len(doc["rows"])


def test_harmonic_exterior_is_nan_on_the_focal_disc(capsys):
    # on 2,1.5,1 the focal disc is z = 0, x^2/3 + y^2/1.25 < 1, where lambda = k
    assert main(["harmonic", "--degree", "2", "--p", "2", "--format", "json",
                 "--points", "0.5,0.5,0;1.9,0,0"]) == 0
    disc, outside = json.loads(capsys.readouterr().out)["rows"]
    assert math.isnan(disc["exterior"]) and math.isfinite(disc["interior"])
    assert math.isfinite(outside["exterior"]) and outside["exterior"] != 0.0


@pytest.mark.parametrize("args, charge", [
    # gamma scales as length^(4n) and the Lame normalization as h^(2(m-1))
    (["--semiaxes", "1e50,5e49,1e49", "gamma", "--order", "8"], None),
    (["--semiaxes", "1e50,5e49,1e49", "lame", "--degree", "8", "--p", "1", "--s", "1e49"],
     None),
    (["--semiaxes", "1.5e-9,1.2e-9,1e-9", "solvation"], "3e-10 4e-10 5e-10 1\n"),
    (["--semiaxes", "1.5e7,1.2e7,1e7", "solvation"], "3e6 4e6 5e6 1\n"),
])
def test_lengths_far_from_one_exit_2_with_one_json_line(tmp_path, args, charge):
    if charge:
        (tmp_path / "charges.txt").write_text(charge)
        args = args + ["--charges", str(tmp_path / "charges.txt")]
    res = run_cli(args)
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "DegenerateEllipsoid"
    assert "semiaxes (" in err["message"]


@pytest.mark.parametrize("args", [
    # E_7^1(1e49) is -inf there, and E_2^1(1e200) nan (t = -inf, and Horner forms t * 0)
    ["--semiaxes", "1e50,5e49,1e49", "lame", "--degree", "7", "--p", "1", "--s", "1e49"],
    ["--semiaxes", "15,12,10", "lame", "--degree", "2", "--p", "1", "--s", "2.0,1e200"],
])
def test_lame_values_beyond_float64_range_exit_2_with_one_json_line(args):
    res = run_cli(args)
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "RangeViolation"
