"""Tests of the benchmark itself: every output check passes on real program
output and fires on a deliberately corrupted one, the tracer's self-time
arithmetic holds, and the metric table matches BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402


def _env():
    env = {k: v for k, v in os.environ.items() if k != run.WORKERS_ENV}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


def _su4euler(*args):
    out = subprocess.run([sys.executable, "-m", "su4euler", *args], env=_env(),
                         capture_output=True, text=True, timeout=300, check=True)
    return out.stdout


@pytest.fixture(scope="module")
def scan_csv():
    return _su4euler("scan", "--samples", "300", "--seed", "5", "--format", "csv")


@pytest.fixture(scope="module")
def scan_json():
    return _su4euler("scan", "--samples", "300", "--seed", "5", "--format", "json")


def _problems(text, fmt="csv", rows=300):
    failed, problems = checks.check_scan(text, fmt, rows)
    assert failed == int(bool(problems))
    return " | ".join(problems)


def _non_boundary_row(lines):
    return next(i for i, line in enumerate(lines[1:-1], 1) if line.endswith(",0"))


def test_real_scans_pass(scan_csv, scan_json):
    assert _problems(scan_csv) == ""
    assert _problems(scan_json, "json") == ""


def test_dropped_row_fires(scan_csv):
    lines = scan_csv.splitlines()
    assert "row count 299 != 300" in _problems("\n".join(lines[:5] + lines[6:]))


def test_flipped_verdict_fires(scan_csv):
    lines = scan_csv.splitlines()
    i = _non_boundary_row(lines)
    a, b = ("entangled", "separable") if ",entangled," in lines[i] else ("separable", "entangled")
    lines[i] = lines[i].replace(f",{a},", f",{b},")
    assert "verdict vs PT min eigenvalue" in _problems("\n".join(lines))


def test_footer_tally_fires(scan_csv):
    lines = scan_csv.splitlines()
    lines[-1] = lines[-1].replace("total=300", "total=301")
    assert "footer" in _problems("\n".join(lines))


def test_perturbed_d_and_angle_fire(scan_csv):
    lines = scan_csv.splitlines()
    i = _non_boundary_row(lines)
    fields = lines[i].split(",")
    d_col = 16
    fields[d_col] = repr(float(fields[d_col]) + 1e-9)
    assert "on d" in _problems("\n".join(lines[:i] + [",".join(fields)] + lines[i + 1:]))
    fields = lines[i].split(",")
    fields[5] = repr(float(fields[5]) + 1e-3)
    assert "on min_eig" in _problems("\n".join(lines[:i] + [",".join(fields)] + lines[i + 1:]))


def test_json_numbers_parse_and_checks_still_fire(scan_json):
    body = json.loads(scan_json)
    for rec in body["records"]:
        for key, value in rec.items():
            if key == "boundary":
                rec[key] = value == "1"
            elif key != "verdict":
                rec[key] = float(value) if "." in value or "e" in value else int(value)
    assert _problems(json.dumps(body), "json") == ""
    rec = next(r for r in body["records"] if not r["boundary"])
    rec["verdict"] = "separable" if rec["verdict"] == "entangled" else "entangled"
    assert "verdict vs PT min eigenvalue" in _problems(json.dumps(body), "json")


def test_unparseable_scan_fires():
    assert "unparseable" in _problems("sample_index,d\n0,nan-ish\n# summary total=1\n")


def test_volume_check():
    text = _su4euler("volume", "--group", "su4", "--method", "mc",
                     "--samples", "100000", "--seed", "2")
    assert checks.check_volume(text, 100000) == (0, [])
    body = json.loads(text)
    body["payload"]["estimate"] += 6 * body["payload"]["standard_error"]
    failed, problems = checks.check_volume(json.dumps(body), 100000)
    assert failed == 1 and "standard errors" in problems[0]
    assert checks.check_volume(text, 200000)[0] == 1


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("audit")
    inputs = checks.audit_inputs(np.random.default_rng(3), 40)
    np.savez(tmp / "in.npz", **inputs)
    subprocess.run([sys.executable, run.CHILD, "audit", str(tmp / "in.npz"),
                    str(tmp / "out.npz")], env=_env(), check=True, timeout=300)
    with np.load(tmp / "out.npz") as data:
        return inputs, dict(data)


@pytest.mark.parametrize("field, corrupt, message", [
    ("resolvent", lambda a: a.__setitem__((0, 2), a[0, 2] + 1e-6), "resolvent"),
    ("one_form", lambda a: a.__setitem__((0, 0), a[0, 0] * (1 + 1e-6)), "one-form"),
    ("haar_density", lambda a: a.__setitem__(0, a[0] * (1 + 1e-9)), "haar_density"),
    ("bloch", lambda a: a.__setitem__((0, 1), a[0, 1] + 1e-9), "bloch"),
    ("d", lambda a: a.__setitem__(0, a[0] + 1e-9), "the d check"),
    ("entangled", lambda a: a.__setitem__(0, not a[0]), "verdict"),
])
def test_audit_check_fires(audit, field, corrupt, message):
    inputs, outputs = audit
    assert checks.check_audit(inputs, outputs) == (0, [])
    bad = dict(outputs)
    bad[field] = outputs[field].copy()
    corrupt(bad[field])
    failed, problems = checks.check_audit(inputs, bad)
    assert failed == 1 and message in problems[0], problems


def test_audit_missing_field_fails_every_state(audit):
    inputs, outputs = audit
    bad = {k: v for k, v in outputs.items() if k != "bloch"}
    assert checks.check_audit(inputs, bad)[0] == 40


def test_self_time_subtracts_child_spans(tmp_path):
    # span 0 [0, 10] holds spans 1 [2, 5] and 2 [6, 7]; span 2 holds 3 [6.5, 6.75]
    path = tmp_path / "spans.npz"
    np.savez(path, name=np.array([0, 1, 1, 2], dtype=np.int32),
             parent=np.array([-1, 0, 0, 2]), start=np.array([0.0, 2.0, 6.0, 6.5]),
             end=np.array([10.0, 5.0, 7.0, 6.75]),
             returned_none=np.array([False, True, False, False]))
    totals = child.layer_totals(path)
    names = child.LAYER_NAMES
    assert totals[names[0]] == (1, 6.0, 1)
    assert totals[names[1]] == (2, 3.75, 1)
    assert totals[names[2]] == (1, 0.25, 1)
    assert totals[names[3]] == (0, 0.0, 0)


def test_traced_child_wraps_imported_names(tmp_path):
    spans = tmp_path / "spans.npz"
    out = tmp_path / "scan.csv"
    subprocess.run([sys.executable, run.CHILD, "--spans", str(spans), "cli", "scan",
                    "--samples", "20", "--output", str(out)], env=_env(),
                   check=True, timeout=300)
    totals = child.layer_totals(spans)
    assert totals["cli.cmd_scan"][0] == 1
    assert totals["separability.scan"][0] == 1
    assert totals["separability.is_entangled"][0] == 20
    assert totals["density.rho_full"][0] == 20
    assert totals["algebra.exp_generator"][0] == 20 * 12
    assert checks.check_scan(out.read_text(), "csv", 20) == (0, [])


def test_metric_table_matches_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "volume-mc",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
