"""End-to-end CLI behavior through real subprocesses."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from su4euler import is_entangled, rho_full

LOWER_THETA = "pi/4, acos(1/sqrt(3)), pi/3"
ZERO_ALPHA = ",".join(["0"] * 12)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "su4euler", *args],
        capture_output=True, timeout=300,
    )


def write_matrix_file(path, matrix):
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write("  ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")


def test_basis_prints_generator():
    proc = run_cli("basis", "--index", "15")
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert "lambda_15" in text
    assert "-1.224745" in text  # -3/sqrt(6)


def test_basis_structure_table():
    proc = run_cli("basis", "--structure")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert "f(1,2,3) = 1" in lines
    assert any(line.startswith("f(4,5,8) = 0.86602540378443") for line in lines)


def test_basis_bad_index_exits_2():
    proc = run_cli("basis", "--index", "16")
    assert proc.returncode == 2
    assert "out of range 1..15" in proc.stderr.decode()


def test_volume_su2_quadrature():
    proc = run_cli("volume", "--group", "su2", "--method", "quad")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["relative_error"] <= 1e-12
    assert abs(payload["analytic"] - 2 * np.pi**2) < 1e-12


def test_volume_su4_quadrature_64_nodes():
    proc = run_cli("volume", "--group", "su4", "--method", "quad", "--nodes", "64")
    payload = json.loads(proc.stdout)["payload"]
    assert payload["relative_error"] <= 1e-10


def test_volume_monte_carlo_deterministic():
    args = ("volume", "--group", "su4", "--method", "mc",
            "--samples", "1e5", "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)["payload"]
    assert payload["standard_error"] > 0
    assert abs(payload["estimate"] - payload["analytic"]) <= 4 * payload["standard_error"]


def test_volume_rejects_unknown_method():
    proc = run_cli("volume", "--group", "su4", "--method", "simpson")
    assert proc.returncode == 2


def test_check_lower_corner_identity():
    proc = run_cli("check", "--alpha", ZERO_ALPHA, "--theta", LOWER_THETA)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["verdict"] == "separable"
    assert abs(payload["d"] - 1.0 / 256.0) < 1e-15
    assert payload["negative_count"] == 0


def test_check_accepts_15_angles():
    alpha15 = ZERO_ALPHA + ",pi/5,0.3,0.7"
    proc = run_cli("check", "--alpha", alpha15, "--theta", LOWER_THETA)
    payload = json.loads(proc.stdout)["payload"]
    assert abs(payload["d"] - 1.0 / 256.0) < 1e-13


def test_check_bell_matrix_file(tmp_path, bell_projector):
    path = tmp_path / "bell.mat"
    write_matrix_file(path, bell_projector)
    proc = run_cli("check", "--matrix", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["verdict"] == "entangled"
    assert abs(payload["d"] - (-1.0 / 16.0)) < 1e-15
    assert payload["negative_count"] == 1


def test_check_rejects_bad_trace(tmp_path):
    path = tmp_path / "bad.mat"
    write_matrix_file(path, np.eye(4, dtype=complex))  # trace 4
    proc = run_cli("check", "--matrix", str(path))
    assert proc.returncode == 3
    assert "trace invariant violated" in proc.stderr.decode()


@pytest.mark.parametrize("content", [
    "1 0 0 0 0 0 0 0\n0 0 1 0 0 0 0\n0 0 0 0 1 0 0 0\n0 0 0 0 0 0 1 0\n",
    "a 0 0 0 0 0 0 0\n" * 4,
    "",
], ids=["short-row", "non-numeric", "empty"])
def test_check_rejects_malformed_matrix_file(tmp_path, content):
    path = tmp_path / "malformed.mat"
    path.write_text(content, encoding="utf-8")
    proc = run_cli("check", "--matrix", str(path))
    stderr = proc.stderr.decode()
    assert proc.returncode == 3
    assert "malformed.mat" in stderr
    assert "needs 4 rows of 8 reals" in stderr
    assert "Warning" not in stderr


def test_check_requires_input():
    proc = run_cli("check")
    assert proc.returncode == 2


@pytest.mark.parametrize("angles", [
    ("--alpha", "foo", "--theta", "1,2,3"),
    ("--alpha", ZERO_ALPHA),
    ("--theta", LOWER_THETA),
    ("--alpha", ZERO_ALPHA, "--theta", LOWER_THETA, "--matrix", ""),
], ids=["both-unparsable", "alpha", "theta", "empty-matrix-path"])
def test_check_matrix_excludes_angles(tmp_path, bell_projector, angles):
    path = tmp_path / "bell.mat"
    write_matrix_file(path, bell_projector)
    proc = run_cli("check", "--matrix", str(path), *angles)
    stderr = proc.stderr.decode()
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert "--matrix" in stderr and "--alpha" in stderr and "--theta" in stderr
    assert "foo" not in stderr  # the angles are not read


def test_check_rejects_malformed_angle_expression():
    proc = run_cli("check", "--alpha", "__import__('os')," + ZERO_ALPHA,
                   "--theta", LOWER_THETA)
    assert proc.returncode == 2
    # A long unsupported expression is echoed cut short, not whole.
    proc = run_cli("check", "--alpha", "foo(" + "x" * 4995 + ")," + ZERO_ALPHA,
                   "--theta", LOWER_THETA)
    assert proc.returncode == 2
    assert "unsupported angle expression" in proc.stderr.decode()
    assert len(proc.stderr) < 500


@pytest.mark.parametrize("row,col", [(0, 0), (0, 2)])
def test_check_rejects_nonfinite_matrix_entries(tmp_path, row, col):
    rho = np.eye(4, dtype=complex) / 4.0
    rho[row, col] = np.nan
    path = tmp_path / "nan.mat"
    write_matrix_file(path, rho)
    proc = run_cli("check", "--matrix", str(path))
    assert proc.returncode == 3
    assert "finiteness invariant violated" in proc.stderr.decode()


def test_check_missing_matrix_file_exits_1(tmp_path):
    proc = run_cli("check", "--matrix", str(tmp_path / "absent.mat"))
    assert proc.returncode == 1
    assert "absent.mat" in proc.stderr.decode()


def test_check_matrix_path_is_directory_exits_1(tmp_path):
    proc = run_cli("check", "--matrix", str(tmp_path))
    assert proc.returncode == 1


@pytest.mark.parametrize("args", [
    ("scan", "--samples", "10"),
    ("volume", "--group", "su4", "--method", "mc", "--samples", "1000"),
], ids=["scan", "volume-mc"])
def test_negative_seed_named(args):
    proc = run_cli(*args, "--seed", "-1")
    assert proc.returncode == 2
    assert "seed must be an integer >= 0, got -1" in proc.stderr.decode()


@pytest.mark.parametrize("command", ["rho", "check"])
def test_nonfinite_alpha_exits_2(command):
    proc = run_cli(command, "--alpha", "0,1e400," + ",".join(["0"] * 10),
                   "--theta", LOWER_THETA)
    stderr = proc.stderr.decode()
    assert proc.returncode == 2
    assert "angles must be finite, got a2 = inf" in stderr
    assert "Warning" not in stderr


@pytest.mark.parametrize("args", [
    ("check", "--alpha", ZERO_ALPHA, "--theta", "pi/2,pi/2,pi/2",
     "--tolerance", "-1"),
    ("scan", "--samples", "5", "--tolerance", "nan"),
])
def test_bad_tolerance_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "tolerance must be finite and >= 0" in proc.stderr.decode()


@pytest.mark.parametrize("expr", ["1/0", "9**9**9", "(-1)**0.5", "acos(2)",
                                  "sqrt(-1)"])
def test_check_angle_arithmetic_error_exits_2(expr):
    proc = run_cli("check", "--alpha", expr + "," + ",".join(["0"] * 11),
                   "--theta", LOWER_THETA)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr.decode()
    assert f"cannot evaluate angle expression {expr!r}" in proc.stderr.decode()


@pytest.mark.parametrize("command", ["rho", "check"])
@pytest.mark.parametrize("alpha", [ZERO_ALPHA, ",".join(["0"] * 15)],
                         ids=["12-angles", "15-angles"])
def test_nonfinite_spectrum_angle_exits_2(command, alpha):
    proc = run_cli(command, "--alpha", alpha, "--theta", "1e400,pi/2,pi/2")
    stderr = proc.stderr.decode()
    assert proc.returncode == 2
    assert "spectrum angles must be finite, got (inf," in stderr
    assert "Warning" not in stderr


@pytest.mark.parametrize("samples", ["1e400", "inf"])
def test_volume_rejects_nonfinite_sample_count(samples):
    proc = run_cli("volume", "--group", "su2", "--method", "mc",
                   "--samples", samples)
    assert proc.returncode == 2
    assert f"sample count must be finite, got {samples!r}" in proc.stderr.decode()


@pytest.mark.parametrize("samples,status", [("2500.5", 2), ("1e3", 0)])
def test_volume_sample_count_must_be_integral(samples, status):
    proc = run_cli("volume", "--group", "su2", "--method", "mc",
                   "--samples", samples)
    assert proc.returncode == status
    if status:
        assert ("integer resolution of at least 1000 samples, got 2500.5"
                in proc.stderr.decode())
    else:
        assert json.loads(proc.stdout)["config"]["resolution"] == 1000


def test_volume_rejects_too_many_nodes():
    proc = run_cli("volume", "--group", "su2", "--method", "quad",
                   "--nodes", "1000000")
    assert proc.returncode == 2
    assert "2 to 1024 nodes per axis, got 1000000" in proc.stderr.decode()
    assert "Traceback" not in proc.stderr.decode()


def test_scan_byte_identical_repeats():
    args = ("scan", "--samples", "50", "--seed", "1")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_scan_csv_round_trip():
    proc = run_cli("scan", "--samples", "30", "--seed", "2")
    lines = proc.stdout.decode().splitlines()
    header = lines[0].split(",")
    assert header[0] == "sample_index" and header[-1] == "boundary"
    assert lines[-1].startswith("# summary ")
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 30
    for row in rows:
        alphas = [float(v) for v in row[1:13]]
        thetas = [float(v) for v in row[13:16]]
        d = float(row[16])
        assert int(row[18]) <= 1
        verdict = is_entangled(rho_full(alphas, thetas))
        assert abs(verdict.d_value - d) <= 1e-12
        assert (row[19] == "entangled") == verdict.entangled


def test_scan_summary_counts():
    proc = run_cli("scan", "--samples", "40", "--seed", "3")
    footer = proc.stdout.decode().splitlines()[-1]
    parts = dict(kv.split("=") for kv in footer[len("# summary "):].split())
    assert int(parts["total"]) == 40
    assert (int(parts["separable"]) + int(parts["entangled"])
            + int(parts["boundary"])) == 40


def test_scan_json_format():
    proc = run_cli("scan", "--samples", "10", "--seed", "4", "--format", "json")
    body = json.loads(proc.stdout)
    assert len(body["records"]) == 10
    assert body["summary"]["total"] == 10


def test_scan_corners_summary(tmp_path):
    out = tmp_path / "corners.csv"
    proc = run_cli("scan", "--corners", "--output", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2**15 + 2  # header + records + summary
    footer = lines[-1]
    parts = dict(kv.split("=") for kv in footer[len("# summary "):].split())
    assert int(parts["entangled"]) == 0
    assert int(parts["total"]) == 2**15


def test_scan_output_file(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli("scan", "--samples", "5", "--seed", "5", "--output", str(out))
    assert proc.returncode == 0
    assert out.read_text().splitlines()[0].startswith("sample_index")


def test_failed_scan_writes_no_output(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli("scan", "--samples", "5", "--tolerance", "nan",
                   "--output", str(out))
    assert proc.returncode == 2
    assert not out.exists()


def test_scan_bad_sample_count_writes_no_output(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli("scan", "--samples", "0", "--output", str(out))
    assert proc.returncode == 2
    assert "samples must be >= 1" in proc.stderr.decode()
    assert not out.exists()


def test_scan_has_no_profile_flag():
    # Scans draw their conjugations over the covering ranges only.
    proc = run_cli("scan", "--samples", "5", "--profile", "covering")
    assert proc.returncode == 2
    assert "unrecognized arguments: --profile" in proc.stderr.decode()


@pytest.mark.parametrize("args", [
    ("scan", "--samples", "5"),
    ("volume", "--group", "su2", "--method", "mc", "--samples", "1000"),
], ids=["scan", "volume-mc"])
def test_no_workers_flag(args):
    proc = run_cli(*args, "--workers", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --workers" in proc.stderr.decode()


def test_scan_unwritable_output():
    proc = run_cli("scan", "--samples", "5", "--output", "/nonexistent/dir/x.csv")
    assert proc.returncode != 0


def test_rho_pure_state():
    proc = run_cli("rho", "--alpha", ZERO_ALPHA, "--theta", "pi/2,pi/2,pi/2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    rho = np.array([[complex(re, im) for re, im in row] for row in payload["rho"]])
    assert np.abs(rho - np.diag([1.0, 0, 0, 0])).max() < 1e-15
    assert np.allclose(sorted(payload["eigenvalues"]), sorted(payload["spectrum"]),
                       atol=1e-12)
    assert abs(payload["bloch"]["w3"] - 0.5) < 1e-15


def test_rho_lower_corner_bloch_vanishes():
    proc = run_cli("rho", "--alpha", ZERO_ALPHA, "--theta", LOWER_THETA)
    payload = json.loads(proc.stdout)["payload"]
    bloch = payload["bloch"]
    assert abs(bloch["w0"] - 0.25) < 1e-15
    assert max(abs(bloch["w3"]), abs(bloch["w8"]), abs(bloch["w15"])) < 1e-15


def test_rho_eigenvalues_match_spectrum_random_angles():
    proc = run_cli("rho", "--alpha", "0.3,0.9,1.4,0.2,2.2,0.8,1.1,0.5,2.8,0.6,0.4,1.0",
                   "--theta", "0.9,1.0,1.2")
    payload = json.loads(proc.stdout)["payload"]
    assert np.allclose(sorted(payload["eigenvalues"]), sorted(payload["spectrum"]),
                       atol=1e-12)


def run_cli_with_workers_env(args, value):
    """Run the CLI with SU4EULER_WORKERS set to value, or unset if None."""
    env = {k: v for k, v in os.environ.items() if k != "SU4EULER_WORKERS"}
    if value is not None:
        env["SU4EULER_WORKERS"] = value
    return subprocess.run([sys.executable, "-m", "su4euler", *args],
                          capture_output=True, timeout=300, env=env)


def test_workers_env_variable_and_flag_override():
    # Every seeded draw uses one stream: the variable is not read, and the
    # flag that once overrode it is gone.
    args = ("volume", "--group", "su2", "--method", "mc", "--samples", "5000",
            "--seed", "9")
    plain = run_cli_with_workers_env(args, None)
    with_env = run_cli_with_workers_env(args, "2")
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stdout == plain.stdout and with_env.stderr == b""
    with_flag = run_cli_with_workers_env((*args, "--workers", "1"), "2")
    assert with_flag.returncode == 2 and with_flag.stdout == b""
    assert "unrecognized arguments: --workers" in with_flag.stderr.decode()


@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-3"])
@pytest.mark.parametrize("args", [
    ("scan", "--samples", "5", "--seed", "1"),
    ("volume", "--group", "su2", "--method", "quad", "--nodes", "8"),
], ids=["scan", "volume-quad"])
def test_bad_workers_env_variable_named(args, value):
    """A SU4EULER_WORKERS value that was once rejected by name is now
    ignored: the run exits 0 with the bytes of a run without it."""
    plain = run_cli_with_workers_env(args, None)
    ignored = run_cli_with_workers_env(args, value)
    assert plain.returncode == ignored.returncode == 0
    assert ignored.stdout == plain.stdout and ignored.stderr == b""


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.decode().strip() == "0.1.0"


@pytest.mark.parametrize("expr,value", [
    ("pi/4", np.pi / 4),
    ("2*pi/3", 2 * np.pi / 3),
    ("acos(1/sqrt(3))", np.arccos(1 / np.sqrt(3))),
    ("-pi + pi", 0.0),
    ("0.125", 0.125),
])
def test_angle_expression_parser(expr, value):
    from su4euler.cli import parse_angle
    assert abs(parse_angle(expr) - value) < 1e-15


@pytest.mark.parametrize("expr", ["1/0", "9**9**9", "1" + "0" * 400 + "*pi",
                                  "acos(2)", "sqrt(-1)", "(-1)**0.5"],
                         ids=["zero-division", "overflow", "int-too-large",
                              "acos-domain", "sqrt-domain", "complex-power"])
def test_angle_expression_arithmetic_error_names_input(expr):
    from su4euler.cli import parse_angle
    with pytest.raises(ValueError, match="cannot evaluate angle expression"):
        parse_angle(expr)


@pytest.mark.parametrize("depth", [1200, 100000])
def test_deeply_nested_angle_expression_exits_2(depth):
    alpha = "-" * depth + "1," + ",".join(["0"] * 11)
    proc = run_cli("check", f"--alpha={alpha}", "--theta", "1,1,1")
    stderr = proc.stderr.decode()
    assert proc.returncode == 2
    assert "Traceback" not in stderr
    assert "angle expression" in stderr
    assert f"({depth + 1} chars)" in stderr
    assert len(proc.stderr) < 500


def test_angle_expression_rejects_complex_power():
    from su4euler.cli import parse_angle
    with pytest.raises(ValueError):
        parse_angle("(-1)**0.5")
    assert parse_angle("(-2)**3") == -8.0


def test_angle_expression_unsupported_error_not_wrapped():
    from su4euler.cli import parse_angle
    with pytest.raises(ValueError,
                       match=r"^unsupported angle expression: 'sqrt\(foo\(1\)\)'$"):
        parse_angle("sqrt(foo(1))")
    with pytest.raises(ValueError, match=r"^unsupported angle expression: "
                                         r"'foo\(x{56}'… \(5000 chars\)$"):
        parse_angle("foo(" + "x" * 4995 + ")")


def test_angle_expression_rejects_calls():
    from su4euler.cli import parse_angle
    with pytest.raises(ValueError):
        parse_angle("__import__('os').system('true')")
    with pytest.raises(ValueError):
        parse_angle("open('/etc/passwd')")
