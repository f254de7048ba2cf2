"""End-to-end CLI behavior, run in process by conftest's run_cli."""

import json
import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import run_cli, run_module, write_matrix_file
from su4euler import is_entangled, rho_full
from su4euler.cli import parse_angle

LOWER_THETA = "pi/4, acos(1/sqrt(3)), pi/3"
ZERO_ALPHA = ",".join(["0"] * 12)


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


def test_basis_structure_takes_no_index():
    proc = run_cli("basis", "--structure", "--index", "3")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "su4euler: basis: --structure prints the whole table; it takes no --index\n")


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
    first, second = run_module(*args), run_module(*args)
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


def test_check_takes_no_subsystem():
    # Both partial transposes have one spectrum; check always transposes B.
    proc = run_cli("check", "--alpha", ZERO_ALPHA, "--theta", LOWER_THETA,
                   "--subsystem", "A")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert "unrecognized arguments: --subsystem A" in proc.stderr.decode()


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


@pytest.mark.parametrize("b,d,verdict,boundary", [
    (3e-3, -8.1e-11, "separable", True),
    (3.3e-3, -1.1859e-10, "entangled", False),
], ids=["inside-cut", "past-cut"])
def test_check_pure_state_against_the_fixed_cut(tmp_path, b, d, verdict, boundary):
    # a|00> + b|11>: the PT eigenvalues are a^2, b^2, ab, -ab, so d = -(ab)^4.
    # The cut |d| <= 1e-10 calls b = 3e-3 boundary although -ab = -3e-3.
    psi = np.array([np.sqrt(1.0 - b * b), 0.0, 0.0, b], dtype=complex)
    path = tmp_path / "pure.mat"
    write_matrix_file(path, np.outer(psi, psi.conj()))
    proc = run_cli("check", "--matrix", str(path))
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["config"] == {"matrix": str(path)}
    payload = body["payload"]
    assert payload["verdict"] == verdict
    assert payload["boundary"] is boundary
    assert payload["negative_count"] == 1
    assert payload["d"] == pytest.approx(d, rel=1e-3, abs=0.0)
    assert payload["min_eigenvalue"] == pytest.approx(-b, rel=1e-3)


@pytest.mark.parametrize("args", [
    ("volume", "--group", "su2", "--method", "mc", "--samples", "1000"),
    ("check", "--alpha", ZERO_ALPHA, "--theta", LOWER_THETA),
    ("rho", "--alpha", ZERO_ALPHA, "--theta", LOWER_THETA),
], ids=["volume", "check", "rho"])
def test_timing_adds_only_elapsed_seconds(args):
    plain = run_cli(*args)
    timed = run_cli(*args, "--timing")
    assert plain.returncode == timed.returncode == 0
    body = json.loads(timed.stdout)
    elapsed = body.pop("elapsed_seconds")
    assert isinstance(elapsed, float) and np.isfinite(elapsed) and elapsed >= 0.0
    assert body == json.loads(plain.stdout)


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


@pytest.mark.parametrize("command", ["check", "rho"])
@pytest.mark.parametrize("flag,value,named", [
    # Thirteen entries with the third empty: dropping it would leave twelve
    # angles, a3..a12 each shifted by one.
    ("--alpha", "0.1,0.2,,0.4,0.5,0.6,0.7,0.8,0.9,1.0,1.1,1.2,1.3", "angle 3 of 13"),
    ("--alpha", ZERO_ALPHA + ",", "angle 13 of 13"),
    ("--theta", "1.0, ,1.1,1.2", "angle 2 of 4"),
    ("--theta", "1.0,1.1,1.2,", "angle 4 of 4"),
], ids=["alpha-inner", "alpha-trailing", "theta-blank", "theta-trailing"])
def test_empty_angle_entry_exits_2(command, flag, value, named):
    angles = {"--alpha": ZERO_ALPHA, "--theta": LOWER_THETA, flag: value}
    proc = run_cli(command, *(item for pair in angles.items() for item in pair))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode() == f"su4euler: {named} is empty\n"


def test_volume_names_an_unparsable_sample_count():
    proc = run_cli("volume", "--group", "su4", "--method", "mc", "--samples", "abc")
    assert proc.returncode == 2
    assert proc.stderr.decode() == ("su4euler: Monte Carlo sample count must be a "
                                    "number such as 1e6, got 'abc'\n")


@pytest.mark.parametrize("samples,problem", [("9" * 3000, "must be finite"),
                                             ("x" * 3000, "must be a number")],
                         ids=["overflows", "unparsable"])
def test_volume_cuts_a_long_sample_count_short(samples, problem):
    proc = run_cli("volume", "--group", "su2", "--method", "mc", "--samples", samples)
    assert proc.returncode == 2
    assert problem in proc.stderr.decode() and len(proc.stderr) < 200


@pytest.mark.parametrize("row,col", [(0, 0), (0, 2)])
def test_check_rejects_nonfinite_matrix_entries(tmp_path, row, col):
    path = tmp_path / "nan.mat"
    path.write_text(_quarter_file({(row, 2 * col): "nan"}), encoding="utf-8")
    proc = run_cli("check", "--matrix", str(path))
    assert proc.returncode == 3
    assert "finiteness invariant violated" in proc.stderr.decode()


def _quarter_file(entries) -> str:
    """A matrix file of rho = I/4, with the reals at the given (row, column)
    of its 4 rows of 8 replaced by the given texts."""
    rows = [["0.25" if j == 2 * i else "0" for j in range(8)] for i in range(4)]
    for (i, j), text in entries.items():
        rows[i][j] = text
    return "".join(" ".join(row) + "\n" for row in rows)


_HUGE_COMPLEX = {(i, 2 * j + k): "-1.7e308" if k and i > j else "1.7e308"
                 for i in range(4) for j in range(4) if i != j for k in (0, 1)}


@pytest.mark.parametrize("entries,message", [
    ({(0, 2): "1e308", (1, 0): "-1e308"}, "hermiticity invariant violated: residue inf"),
    ({(0, 1): "1e400"}, "finiteness invariant violated: 1 of 16 entries not finite"),
    ({(0, 0): "1e308", (1, 2): "1e308", (2, 4): "-1e308", (3, 6): "-1e308"},
     "trace invariant violated: trace nan+0j"),
    (_HUGE_COMPLEX, "positivity invariant violated: min eigenvalue nan"),
], ids=["hermiticity-overflow", "inf-imaginary-part", "trace-overflow",
        "eigensolver-overflow"])
def test_check_matrix_near_the_float_limit_exits_3_without_a_warning(tmp_path, entries,
                                                                     message):
    path = tmp_path / "extreme.mat"
    path.write_text(_quarter_file(entries), encoding="utf-8")
    proc = run_cli("check", "--matrix", str(path))
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr.decode() == f"su4euler: {message}\n"


def test_cli_import_loads_no_random_polynomial_or_dataclasses():
    """Beyond what numpy loads itself: a draw imports numpy.random, the
    quadrature numpy.polynomial and a scan orjson (with zoneinfo) when they
    run, so check, rho and volume load none of them."""
    code = ("import sys, numpy; before = set(sys.modules); import su4euler.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, timeout=300)
    loaded = proc.stdout.decode().split()
    assert "su4euler.cli" in loaded
    assert [m for m in loaded if m in ("dataclasses", "orjson", "zoneinfo")
            or m.startswith(("numpy.random", "numpy.polynomial"))] == []


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
     "--tolerance", "0"),
    ("scan", "--samples", "5", "--tolerance", "1e-3"),
])
def test_bad_tolerance_exits_2(args):
    # The verdict cut is fixed: every tolerance is an unknown flag.
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert "unrecognized arguments: --tolerance" in proc.stderr.decode()


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


@pytest.mark.parametrize("samples,status", [("2500.5", 2), ("1000.00000000000000001", 2),
                                            ("1e3", 0), ("1e30", 2),
                                            ("9007199254740993", 2),
                                            ("12345678901234567891", 2)])
def test_volume_sample_count_must_be_integral(samples, status):
    # float() reads 1000.00000000000000001 as 1000: the count is parsed exactly.
    proc = run_cli("volume", "--group", "su2", "--method", "mc",
                   "--samples", samples)
    assert proc.returncode == status
    if samples.startswith(("2500.", "1000.")):
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            "su4euler: Monte Carlo needs an integer resolution of at least 1000 samples, "
            f"got {samples}\n")
    elif status:
        assert proc.stderr.decode() == (
            f"su4euler: Monte Carlo sample count must be below 2^53, got {samples!r}\n")
    else:
        assert json.loads(proc.stdout)["config"]["resolution"] == 1000


@pytest.mark.parametrize("flags,named", [
    (("--method", "quad", "--samples", "5"), "--samples"),
    (("--method", "quad", "--seed", "9"), "--seed"),
    (("--seed", "9"), "--seed"),
    (("--method", "quad", "--seed", "9", "--samples", "5"), "--samples or --seed"),
    (("--method", "mc", "--nodes", "3"), "--nodes"),
], ids=["quad-samples", "quad-seed", "default-quad-seed", "quad-both", "mc-nodes"])
def test_volume_rejects_flags_its_method_does_not_read(flags, named):
    proc = run_cli("volume", "--group", "su2", *flags)
    method = "mc" if "mc" in flags else "quad"
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        f"su4euler: volume: --method {method} takes no {named}\n")


def test_volume_config_holds_what_the_method_reads():
    quad = json.loads(run_cli("volume", "--group", "su2").stdout)["config"]
    assert quad == {"group": "su2", "method": "quad", "resolution": 64}
    mc = json.loads(run_cli("volume", "--group", "su2", "--method", "mc",
                            "--samples", "1000").stdout)["config"]
    assert mc == {"group": "su2", "method": "mc", "resolution": 1000, "seed": 0}


def test_volume_rejects_too_many_nodes():
    proc = run_cli("volume", "--group", "su2", "--method", "quad",
                   "--nodes", "1000000")
    assert proc.returncode == 2
    assert "2 to 1024 nodes per axis, got 1000000" in proc.stderr.decode()
    assert "Traceback" not in proc.stderr.decode()


def test_scan_byte_identical_repeats():
    args = ("scan", "--samples", "50", "--seed", "1")
    first, second = run_module(*args), run_module(*args)
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


@pytest.mark.parametrize("flags", [
    ("--samples", "5", "--seed", "9"),
    ("--samples", "1000"),
    ("--seed", "0"),
], ids=["both", "samples", "seed"])
def test_scan_corners_excludes_samples_and_seed(tmp_path, flags):
    # The corners are fixed: a sample count or seed would be ignored.
    out = tmp_path / "corners.csv"
    proc = run_cli("scan", "--corners", *flags, "--output", str(out))
    stderr = proc.stderr.decode()
    assert proc.returncode == 2
    assert "--corners" in stderr and "--samples" in stderr and "--seed" in stderr
    assert not out.exists()


def test_random_scan_config_keeps_default_samples_and_seed():
    proc = run_cli("scan", "--format", "json")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["config"] == {"mode": "random", "samples": 1000, "seed": 0}
    assert body["summary"]["total"] == 1000


def test_scan_output_file(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli("scan", "--samples", "5", "--seed", "5", "--output", str(out))
    assert proc.returncode == 0
    assert out.read_text().splitlines()[0].startswith("sample_index")


def test_failed_scan_writes_no_output(tmp_path):
    out = tmp_path / "records.csv"
    proc = run_cli("scan", "--samples", "5", "--seed", "-1", "--output", str(out))
    assert proc.returncode == 2
    assert "seed must be an integer >= 0" in proc.stderr.decode()
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


def test_scan_to_closed_stdout_ends_quietly():
    # `su4euler scan --samples 20000 | head -1`: the reader goes after one
    # line, well before the ~6 MB of CSV is written.
    proc = subprocess.Popen(
        [sys.executable, "-m", "su4euler", "scan", "--samples", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"sample_index,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert stderr == b""


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


def test_workers_env_variable_and_flag_override(monkeypatch):
    # Every seeded draw uses one stream: the variable is not read, and the
    # flag that once overrode it is gone.
    args = ("volume", "--group", "su2", "--method", "mc", "--samples", "5000",
            "--seed", "9")
    monkeypatch.delenv("SU4EULER_WORKERS", raising=False)
    plain = run_cli(*args)
    monkeypatch.setenv("SU4EULER_WORKERS", "2")
    with_env = run_cli(*args)
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stdout == plain.stdout and with_env.stderr == b""
    with_flag = run_cli(*args, "--workers", "1")
    assert with_flag.returncode == 2 and with_flag.stdout == b""
    assert "unrecognized arguments: --workers" in with_flag.stderr.decode()


@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-3"])
@pytest.mark.parametrize("args", [
    ("scan", "--samples", "5", "--seed", "1"),
    ("volume", "--group", "su2", "--method", "quad", "--nodes", "8"),
], ids=["scan", "volume-quad"])
def test_bad_workers_env_variable_named(monkeypatch, args, value):
    """A SU4EULER_WORKERS value that was once rejected by name is now
    ignored: the run exits 0 with the bytes of a run without it."""
    monkeypatch.delenv("SU4EULER_WORKERS", raising=False)
    plain = run_cli(*args)
    monkeypatch.setenv("SU4EULER_WORKERS", value)
    ignored = run_cli(*args)
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
    assert abs(parse_angle(expr) - value) < 1e-15


@pytest.mark.parametrize("expr", ["1/0", "9**9**9", "1" + "0" * 400 + "*pi",
                                  "acos(2)", "sqrt(-1)", "(-1)**0.5"],
                         ids=["zero-division", "overflow", "int-too-large",
                              "acos-domain", "sqrt-domain", "complex-power"])
def test_angle_expression_arithmetic_error_names_input(expr):
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
    with pytest.raises(ValueError):
        parse_angle("(-1)**0.5")
    assert parse_angle("(-2)**3") == -8.0


def test_angle_expression_unsupported_error_not_wrapped():
    with pytest.raises(ValueError,
                       match=r"^unsupported angle expression: 'sqrt\(foo\(1\)\)'$"):
        parse_angle("sqrt(foo(1))")
    with pytest.raises(ValueError, match=r"^unsupported angle expression: "
                                         r"'foo\(x{56}'… \(5000 chars\)$"):
        parse_angle("foo(" + "x" * 4995 + ")")
    # bool is an int subclass, but True is not an angle.
    for text, shown in (("True", "'True'"), ("False*pi", r"'False\*pi'")):
        with pytest.raises(ValueError, match=rf"^unsupported angle expression: {shown}$"):
            parse_angle(text)


def test_angle_expression_rejects_calls():
    with pytest.raises(ValueError):
        parse_angle("__import__('os').system('true')")
    with pytest.raises(ValueError):
        parse_angle("open('/etc/passwd')")


# Values no flag should turn into a traceback: empty and blank strings, an
# overflowing literal, nan, a 3000-digit count, non-ASCII digits (Arabic-Indic
# and fullwidth, which int() and float() accept), a bool, unknown names, and
# expressions nested too deeply or too long for the parser.
_HOSTILE = ["", " ", "\t\n", "1e400", "-1e400", "nan", "inf", "9" * 3000,
            "-" + "9" * 3000, "٣", "１２", "True", "su5", "bogus",
            "(" * 300 + "1" + ")" * 300, "-" * 3000 + "1", "1/0", "acos(2)",
            "9**9**9", "pi/4,", ",", "0", "-1", "2500.5"]
_ANGLES = ["0", "0.3", "pi/4", "pi/5", "-1.2", "acos(1/sqrt(3))", "2*pi", "1e-9"]
_THETAS = ["pi/4", "1", "1.1", "1.2", "pi/3", "pi/2", "acos(1/sqrt(3))"]
_MATRIX_TOKENS = ["0", "0", "0", "0.25", "0.5", "-0.5", "1", "1e-300", "1e308",
                  "-1e308", "1e400", "nan", "inf", "-inf", "abc", "0x10", "١",
                  "1,0", "True"]


def _sweep_value(rng, valid):
    """A value for one flag: valid one time in two, else hostile."""
    return rng.choice(valid) if rng.random() < 0.5 else rng.choice(_HOSTILE)


def _angle_list(rng, pool, counts):
    values = [rng.choice(pool) for _ in range(rng.choice(counts))]
    if rng.random() < 0.3:
        values[rng.randrange(len(values))] = rng.choice(_HOSTILE)
    return ",".join(values)


def _counts(parse, most):
    """The hostile values except those parse reads as a finite count above
    most: a scan's run time grows linearly with its count, which has no
    ceiling, and a large Monte Carlo count runs long.  inf and nan stay."""
    def small(text):
        try:
            return not most < parse(text) < math.inf
        except ValueError:
            return True

    return [text for text in _HOSTILE if small(text)]


def _matrix_file(rng, path):
    """A random 4x8 table of tokens, sometimes of another shape, sometimes
    the valid I/4."""
    if rng.random() < 0.2:
        text = _quarter_file({})
    else:
        rows = [[rng.choice(_MATRIX_TOKENS) for _ in range(rng.choice((8, 8, 8, 7, 9)))]
                for _ in range(rng.choice((4, 4, 4, 0, 3, 5)))]
        text = "".join(" ".join(row) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sweep_argv(rng, tmp_path, index):
    command = rng.choice(["basis", "volume", "check", "scan", "rho"])
    argv = [command]
    if command == "basis":
        if rng.random() < 0.5:
            argv += ["--index", _sweep_value(rng, [str(k) for k in range(1, 16)])]
        if rng.random() < 0.3:
            argv.append("--structure")
    elif command == "volume":
        argv += ["--group", _sweep_value(rng, ["su2", "su3", "su4"])]
        method = rng.choice(["quad", "mc", "mc", rng.choice(_HOSTILE)])
        argv += ["--method", method]
        if rng.random() < 0.3 or method == "quad" and rng.random() < 0.5:
            argv += ["--nodes", _sweep_value(rng, ["2", "12", "64"])]
        if rng.random() < 0.6 or method == "mc" and rng.random() < 0.5:
            argv += ["--samples", rng.choice(["1000", "2.5e3", "4096", "5e3"]
                                             + _counts(float, 5000))]
        if rng.random() < 0.4:
            argv += ["--seed", _sweep_value(rng, ["0", "1", "7"])]
    elif command in ("check", "rho"):
        # check reads a matrix file, or the angles, or given both neither.
        source = rng.choice(["angles", "matrix", "matrix", "both"] if command == "check"
                            else ["angles"])
        if source != "matrix":
            for flag, pool, counts in (("--alpha", _ANGLES, (12, 15, 12, 11)),
                                       ("--theta", _THETAS, (3, 3, 3, 2))):
                if rng.random() < 0.9:
                    argv += [flag, _angle_list(rng, pool, counts)]
        if source != "angles":
            path = _matrix_file(rng, tmp_path / f"sweep{index}.mat")
            argv += ["--matrix", rng.choice([path] * 7 + ["", str(tmp_path),
                                                          str(tmp_path / "absent.mat")])]
    else:
        if rng.random() < 0.15:
            # Always with --samples or --seed: a valid corner scan classifies
            # all 2^15 corners.
            argv += ["--corners", rng.choice(["--samples", "--seed"]), "1"]
        if rng.random() < 0.7:
            argv += ["--samples", rng.choice(["1", "3", "17", "256", "4096"]
                                             + _counts(int, 4096))]
        if rng.random() < 0.4:
            argv += ["--seed", _sweep_value(rng, ["0", "1", "2"])]
        if rng.random() < 0.4:
            argv += ["--format", _sweep_value(rng, ["csv", "json"])]
        if rng.random() < 0.3:
            argv += ["--output", rng.choice(["out.csv", " ", str(tmp_path / "no" / "x")])]
    if command != "basis" and rng.random() < 0.2:
        argv.append("--timing")
    return argv


def test_seeded_argv_and_matrix_file_sweep(tmp_path, monkeypatch):
    # Random argv over the five subcommands: every run ends in a documented
    # status with one su4euler: line or argparse's usage on stderr, a
    # success prints nothing there, and no warning is raised.
    monkeypatch.chdir(tmp_path)  # a stray --output lands here
    rng = random.Random(27)
    statuses = set()
    for index in range(1500):
        argv = _sweep_argv(rng, tmp_path, index)
        proc = run_cli(*argv)
        status, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        statuses.add(status)
        assert "Warning: " not in err, argv
        assert status in (0, 1, 2, 3), argv
        if status == 0:
            assert err == "", argv
        elif err.startswith("usage: "):
            assert status == 2 and out == "", argv
            assert re.search(r"^su4euler( \w+)?: error: ", err, re.M), argv
        else:
            assert err.startswith("su4euler: ") and err.count("\n") == 1, (argv, err)
            assert err.endswith("\n") and out == "", argv
    assert statuses == {0, 1, 2, 3}
