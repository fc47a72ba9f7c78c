import json
import subprocess
import sys

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
