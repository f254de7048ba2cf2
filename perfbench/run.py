"""su4euler benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation is a fresh child interpreter
(``python -m su4euler ...`` or ``perfbench/child.py``) importing su4euler
from ./src; children run one at a time in a closed loop until S seconds
have passed.  A child is timed from spawn to exit and its peak RSS is read
from os.wait4.  Outputs go to fresh paths in a per-run temporary directory
and are checked (perfbench/checks.py) after the child exits, outside the
timed window, then deleted.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced children and reports per-layer calls and self time from the
traced ones, plus the tracing overhead.  The last line of stdout is the
JSON result; earlier lines are a readable copy and the environment, and a
full record goes to .perfbench/results/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import child

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK = os.path.join(ROOT, ".perfbench")

SCAN_SAMPLES = 10_000
CORNER_STATES = 2**15
MC_SAMPLES = 5_000_000
AUDIT_STATES = 4_000

SETUP_SPAWNS = 15
CHILD_TIMEOUT_S = 120.0
# Removed from the child environment: it changes scan's sub-stream split.
WORKERS_ENV = "SU4EULER_WORKERS"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in child.LAYER_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "separability.eigenvalues_via_resolvent.valid_ratio": "ratio",
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Operation:
    """One child run: what to execute, how many items it does, how to check it."""

    mode: str                  # "cli" or "audit"
    args: list
    items: int
    operations: int            # operations counted in attempted/failed
    output: str                # file holding the output (hashed, sized)
    check: Callable            # () -> (failed, problems, latencies_us or None)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _single(result):
    failed, problems = result
    return failed, problems, None


def scan_random(seed, run_dir, tag):
    out = os.path.join(run_dir, f"{tag}.csv")
    args = ["scan", "--samples", str(SCAN_SAMPLES), "--seed", str(seed),
            "--format", "csv", "--output", out]
    return Operation("cli", args, SCAN_SAMPLES, 1, out, lambda: _single(
        checks.check_scan(_read(out), "csv", SCAN_SAMPLES)))


def corners_json(seed, run_dir, tag):
    del seed  # the corner set is fixed
    out = os.path.join(run_dir, f"{tag}.json")
    args = ["scan", "--corners", "--format", "json", "--output", out]
    return Operation("cli", args, CORNER_STATES, 1, out, lambda: _single(
        checks.check_scan(_read(out), "json", CORNER_STATES)))


def volume_mc(seed, run_dir, tag):
    out = os.path.join(run_dir, f"{tag}.stdout")
    args = ["volume", "--group", "su4", "--method", "mc",
            "--samples", str(MC_SAMPLES), "--seed", str(seed)]
    return Operation("cli", args, MC_SAMPLES, 1, out, lambda: _single(
        checks.check_volume(_read(out), MC_SAMPLES)))


def api_audit(seed, run_dir, tag):
    inputs = checks.audit_inputs(np.random.default_rng(seed), AUDIT_STATES)
    in_path = os.path.join(run_dir, f"{tag}.in.npz")
    out = os.path.join(run_dir, f"{tag}.out.npz")
    np.savez(in_path, **inputs)

    def check():
        try:
            with np.load(out) as data:
                outputs = dict(data)
        except (OSError, ValueError) as exc:
            return AUDIT_STATES, [f"unreadable audit output: {exc!r}"], None
        failed, problems = checks.check_audit(inputs, outputs)
        return failed, problems, outputs.get("latency", np.empty(0)) * 1e6

    return Operation("audit", [in_path, out], AUDIT_STATES, AUDIT_STATES, out, check)


WORKLOADS = {
    "scan-random": scan_random,
    "corners-json": corners_json,
    "volume-mc": volume_mc,
    "api-audit": api_audit,
}


def child_env():
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, env, stdout_path, stderr_path):
    """Run argv to completion; returns (wall seconds, peak RSS MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(env):
    """Median wall time of fresh interpreters importing su4euler and its CLI,
    after one spawn that compiles bytecode and confirms the import path."""
    probe = subprocess.run(
        [sys.executable, "-c", "import su4euler, su4euler.cli; print(su4euler.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    found = probe.stdout.strip()
    if probe.returncode != 0 or not found.startswith(SRC + os.sep):
        raise RuntimeError(f"su4euler does not import from {SRC}: "
                           f"{found or probe.stderr.strip()[-300:]}")
    argv = [sys.executable, "-c", "import su4euler, su4euler.cli"]
    walls = [spawn(argv, env, os.devnull, os.devnull)[0] for _ in range(SETUP_SPAWNS)]
    return statistics.median(walls)


def perform(make, seed, k, run_dir, env, traced, spans_kept=None):
    """Run operation k of the run and check its output afterwards.  A traced
    operation's spans are moved to spans_kept."""
    child_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    tag = f"op{k}{'-traced' if traced else ''}"
    op = make(child_seed, run_dir, tag)
    spans = os.path.join(run_dir, f"{tag}.spans.npz")
    if op.mode == "cli" and not traced:
        argv = [sys.executable, "-m", "su4euler", *op.args]
    else:
        argv = [sys.executable, CHILD, *(["--spans", spans] if traced else []),
                op.mode, *op.args]
    stdout = os.path.join(run_dir, f"{tag}.stdout")
    stderr = os.path.join(run_dir, f"{tag}.stderr")
    wall, rss_mb, code = spawn(argv, env, stdout, stderr)

    latencies, layers = None, None
    if code != 0:
        failed, problems = op.operations, [f"exit status {code}: {_read(stderr)[-300:]}"]
    else:
        failed, problems, latencies = op.check()
        if traced:
            layers = child.layer_totals(spans)
            os.replace(spans, spans_kept)
    if os.path.exists(op.output):
        with open(op.output, "rb") as fh:
            sha256 = hashlib.sha256(fh.read()).hexdigest()
        output_bytes = os.path.getsize(op.output)
    else:
        sha256, output_bytes = None, 0
    for name in os.listdir(run_dir):
        if name.startswith(tag + "."):
            os.remove(os.path.join(run_dir, name))
    return {
        "k": k, "seed": child_seed, "traced": traced, "wall_s": wall,
        "items_per_s": op.items / wall, "peak_rss_mb": rss_mb, "exit": code,
        "operations": op.operations, "failed": failed, "problems": problems,
        "sha256": sha256, "mode": op.mode, "output_bytes": output_bytes,
    }, latencies, layers


def end_to_end(records, latencies, setup_s, error_rate):
    """Per-state latencies where the workload has them, else one latency per
    CLI invocation."""
    if latencies:
        samples = np.concatenate(latencies)
    else:
        samples = np.array([r["wall_s"] * 1e6 for r in records])
    return {
        "items_per_s": statistics.median(r["items_per_s"] for r in records),
        "latency_p50_us": float(np.percentile(samples, 50)),
        "latency_p90_us": float(np.percentile(samples, 90)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "setup_s": setup_s,
        "success_rate": 1.0 - error_rate,
    }, len(samples)


def per_layer(untraced, traced, layer_runs):
    metrics = {}
    for layer in child.LAYER_NAMES:
        metrics[f"{layer}.calls"] = statistics.median(run[layer][0] for run in layer_runs)
        metrics[f"{layer}.self_s"] = statistics.median(run[layer][1] for run in layer_runs)
    resolvent = "separability.eigenvalues_via_resolvent"
    calls = sum(run[resolvent][0] for run in layer_runs)
    metrics[f"{resolvent}.valid_ratio"] = (
        sum(run[resolvent][2] for run in layer_runs) / calls if calls else 0.0)
    metrics["cli.output_bytes"] = statistics.median(
        r["output_bytes"] if r["mode"] == "cli" else 0 for r in untraced + traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["items_per_s"] for r in traced)
        / statistics.median(r["items_per_s"] for r in untraced))
    return metrics


def git_revision():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "removed_env": {WORKERS_ENV: os.environ.get(WORKERS_ENV)},
        "git_revision": git_revision(),
    }


def run(workload, seed, seconds, trace):
    env = child_env()
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(WORK, "tmp"))
    make = WORKLOADS[workload]
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    spans_kept = os.path.join(results, f"{workload}-seed{seed}.spans.npz")
    untraced, traced, latencies, layer_runs = [], [], [], []
    try:
        setup_s = measure_setup(env)
        deadline = time.perf_counter() + seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            record, lat, _ = perform(make, seed, k, run_dir, env, traced=False)
            untraced.append(record)
            if lat is not None:
                latencies.append(lat)
            if trace:
                record, _, layers = perform(make, seed, k, run_dir, env, traced=True,
                                            spans_kept=spans_kept)
                traced.append(record)
                if layers is not None:
                    layer_runs.append(layers)
            k += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = untraced + traced
    attempted = sum(r["operations"] for r in records)
    failed = sum(r["failed"] for r in records)
    if trace:
        if not layer_runs:
            raise RuntimeError("no traced operation succeeded")
        metrics, samples = per_layer(untraced, traced, layer_runs), None
        units = PER_LAYER_UNITS
    else:
        metrics, samples = end_to_end(untraced, latencies, setup_s, failed / attempted)
        units = END_TO_END_UNITS
    env_info = environment()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}

    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "environment": env_info, "operations": records,
                   "setup_s": setup_s, "result": result}, fh, indent=1)

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(f"children: {len(untraced)} untraced, {len(traced)} traced; "
          f"operations attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g} ratio")
    if samples is not None:
        print(f"latency samples: {samples}")
    print("output sha256: " + " ".join(sorted({r['sha256'][:16] for r in records
                                                if r["sha256"]})))
    for r in records:
        for problem in r["problems"]:
            print(f"check failed, operation {r['k']}{' traced' if r['traced'] else ''}: {problem}")
    for name, unit in units.items():
        print(f"{name:<58} {metrics[name]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "su4euler", "__init__.py")):
        print(f"perfbench: no su4euler sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
