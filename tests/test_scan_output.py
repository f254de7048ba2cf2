"""The streaming scan writer against a record-list reference writer.

The reference builds the whole output state by state from the chunks of the
library's scan/corner_scan: every field through repr(float), and JSON as one
json.dumps(sort_keys=True, indent=2) of the whole document.  The CLI writes
the same bytes chunk by chunk from the classification columns, on one
process or split between two.
"""

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from conftest import run_cli
from su4euler import __version__, cli, corner_scan, haar, scan
from su4euler.haar import CHUNK
from su4euler.separability import Classification

_HEADER = (["sample_index"] + [f"alpha{i}" for i in range(1, 13)]
           + ["theta1", "theta2", "theta3", "d", "min_eig", "neg_count",
              "verdict", "boundary"])


def _fmt(x) -> str:
    return repr(float(x))


def _record_fields(chunks):
    """The fields of each state, one list per state in sample order."""
    for start, alphas, thetas, c in chunks:
        for i in range(len(alphas)):
            yield ([str(start + i)]
                   + [_fmt(a) for a in alphas[i]]
                   + [_fmt(t) for t in thetas[i]]
                   + [_fmt(c.d[i]), _fmt(c.min_eig[i]), str(c.neg_count[i]),
                      "entangled" if c.entangled[i] else "separable",
                      str(int(c.boundary[i]))])


def _summary(records) -> dict:
    entangled = sum(r[-2] == "entangled" for r in records)
    boundary = sum(r[-1] == "1" for r in records)
    return {
        "total": len(records),
        "entangled": entangled,
        "boundary": boundary,
        "separable": len(records) - entangled - boundary,
    }


def reference_output(fmt, corners=False, samples=1000, seed=0) -> str:
    if corners:
        chunks = corner_scan()
        config = {"mode": "corners"}
    else:
        chunks = scan(samples, seed=seed)
        config = {"mode": "random", "samples": samples, "seed": seed}
    return _reference_text(fmt, config, chunks)


def _reference_text(fmt, config, chunks) -> str:
    records = list(_record_fields(chunks))
    summary = _summary(records)
    if fmt == "csv":
        lines = [",".join(_HEADER)]
        lines.extend(map(",".join, records))
        lines.append("# summary separable={separable} entangled={entangled} "
                     "boundary={boundary} total={total}".format(**summary))
        return "\n".join(lines) + "\n"
    body = {
        "command": "scan",
        "config": config,
        "records": [dict(zip(_HEADER, r)) for r in records],
        "summary": summary,
        "version": __version__,
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _argv(fmt, options) -> list:
    argv = ["scan", "--format", fmt]
    for key, value in options.items():
        argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
    return argv


CASES = {
    "default": {"samples": 50, "seed": 4},
    "one-sample": {"samples": 1},
    "chunk-boundary": {"samples": 4097, "seed": 3},
    "covering": {"samples": 333, "seed": 2},
    "corners": {"corners": True},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_streamed_output_equals_reference(tmp_path, case, fmt):
    out = tmp_path / f"scan.{fmt}"
    assert run_cli(*_argv(fmt, CASES[case]), "--output", str(out)).returncode == 0
    assert out.read_bytes() == reference_output(fmt, **CASES[case]).encode()


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 1.0, -0.0, 0.0],
    [0.7853981633974483] * 9,
    [-0.0],
    [1.5, 2.5, 1.5, 3.5, 2.5, 1.5],
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 5e-324, 1e308],
    [k / 7 for k in range(50)],
], ids=["signed-zeros", "constant", "one-element", "scattered-repeats",
        "extremes", "all-distinct"])
def test_float_texts_equal_repr(values):
    column = np.array(values)
    assert list(cli._float_texts(column)) == [_fmt(x) for x in values]


def _many_doubles() -> np.ndarray:
    """A million doubles of either sign: random bit patterns, log-uniform
    magnitudes from 1e-6 to 1e18, integers, powers of two and ten and their
    neighbours, the ends of repr's positional range (1e-4 and 1e16) and
    theirs, subnormals, zeros, nan and the infinities."""
    rng = np.random.default_rng(32)
    powers = np.concatenate((2.0 ** np.arange(-1074, 1024),
                             [float(f"1e{k}") for k in range(-323, 309)]))
    ends = np.array([1e-4, 1e16])
    special = np.concatenate((powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                              ends, np.nextafter(ends, 0), np.nextafter(ends, np.inf),
                              [0.0, np.nan, np.inf, 5e-324, 2.225073858507201e-308]))
    magnitudes = np.concatenate((
        rng.integers(0, 2**64, 350_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-6, 18, 350_000),
        np.arange(100_000, dtype=np.float64),
        rng.integers(0, 2**53, 100_000).astype(np.float64),
        rng.integers(1, 2**52, 100_000, dtype=np.uint64).view(np.float64),  # subnormal
    ))
    # Random signs, flipped on the bits: arithmetic on a signalling nan warns.
    flips = np.where(rng.random(len(magnitudes)) < 0.5, np.uint64(1 << 63), np.uint64(0))
    signed = (magnitudes.view(np.uint64) ^ flips).view(np.float64)
    return np.concatenate((signed, special, -special))


def test_float_texts_equal_repr_on_a_million_doubles():
    """The orjson route and repr agree on every double.  The array repeats
    some values, so its distinct ones are formatted through the dedupe."""
    values = _many_doubles()
    assert len(values) >= 10**6
    assert cli._float_texts(values) == list(map(repr, values.tolist()))


def test_float_texts_of_strided_columns():
    # The rows of a transposed block, as the chunk formatter passes them.
    block = np.column_stack((np.tile([-0.0, 0.0, 1e-300], 7), np.arange(21) / 7,
                             np.full(21, np.pi))).T
    for column in block:
        assert not column.flags.contiguous
        assert list(cli._float_texts(column)) == [_fmt(x) for x in column]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_corner_scan_formats_each_alpha_column_once(monkeypatch, tmp_path, fmt):
    """The eight corner chunks share one alphas array: one process formats
    its twelve columns once, and per chunk only the thetas, d and min_eig."""
    calls = []
    float_texts = cli._float_texts

    def counted_float_texts(column):
        calls.append(len(column))
        return float_texts(column)

    monkeypatch.setattr(cli, "_float_texts", counted_float_texts)
    out = tmp_path / f"corners.{fmt}"
    assert run_cli("scan", "--corners", "--format", fmt, "--output", str(out)).returncode == 0
    assert calls == [CHUNK] * (12 + 8 * 5)
    assert out.read_bytes() == reference_output(fmt, corners=True).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_pieces_keep_signed_zeros(fmt):
    alphas = np.zeros((3, 12))
    alphas[1] = -0.0
    alphas[2, ::2] = 1.0
    thetas = np.array([[-0.0, 0.0, 0.5], [0.0, -0.0, 0.5], [-0.0, -0.0, 0.5]])
    c = Classification(d=np.array([0.0, -0.0, 0.0]),
                       min_eig=np.array([-0.0, 0.0, -0.0]),
                       neg_count=np.array([0, 0, 1]),
                       entangled=np.array([False, False, True]),
                       boundary=np.array([True, True, False]))
    config = {"mode": "random", "samples": 3, "seed": 0}
    chunk_text = cli._chunk_formatter(fmt)((0, alphas, thetas, c))
    text = "".join(cli._scan_pieces(fmt, config, iter([chunk_text])))
    reference = _reference_text(fmt, config, [(0, alphas, thetas, c)])
    assert "-0.0" in reference
    assert text == reference


def test_stdout_equals_output_file(tmp_path):
    out = tmp_path / "scan.json"
    argv = _argv("json", CASES["default"])
    to_file, to_stdout = run_cli(*argv, "--output", str(out)), run_cli(*argv)
    assert to_file.returncode == to_stdout.returncode == 0 and to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()


@pytest.mark.parametrize("args,tally", [
    (["--samples", "10000", "--seed", "1"], (2933, 7067, 0)),
    (["--samples", "10000", "--seed", "7"], (2892, 7108, 0)),
    (["--samples", "333", "--seed", "2"], (106, 227, 0)),
    (["--corners"], (4096, 0, 28672)),
], ids=["seed1", "seed7", "covering", "corners"])
def test_golden_scan_tallies(tmp_path, args, tally):
    """Verdict tallies of the golden scans, pinned where their hashes cannot
    be: the hashes follow the BLAS build, the verdicts should not."""
    out = tmp_path / "scan.csv"
    assert run_cli("scan", *args, "--output", str(out)).returncode == 0
    footer = out.read_text(encoding="utf-8").splitlines()[-1]
    separable, entangled, boundary = tally
    assert footer == (f"# summary separable={separable} entangled={entangled} "
                      f"boundary={boundary} total={sum(tally)}")


# The split: a scan of two or more chunks runs on two processes where two
# CPUs are available, the parent and a forked worker taking alternate
# chunks.  haar._available_cpus is patched to choose the path whatever this
# machine has.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _no_fork():
    raise AssertionError("os.fork called")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_CASES = {
    "one-sample": {"samples": 1},
    "one-chunk": {"samples": CHUNK},
    "chunk-boundary": {"samples": CHUNK + 1, "seed": 3},
    "three-chunks": {"samples": 10**4, "seed": 1},
    "corners": {"corners": True},
}


@needs_fork
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_two_processes_write_the_one_cpu_bytes(monkeypatch, tmp_path, case, fmt):
    options = SPLIT_CASES[case]
    one_chunk = options.get("samples", 2 * CHUNK) <= CHUNK
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    outputs = []
    for cpus, fork in ((2, _no_fork if one_chunk else counted_fork), (1, _no_fork)):
        monkeypatch.setattr(haar, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / f"scan-{cpus}.{fmt}"
        assert cli.main(_argv(fmt, options) + ["--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(forks) == (0 if one_chunk else 1)
    assert outputs[0] == outputs[1]
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("failing", [1, 2, 3])
def test_a_failed_chunk_ends_the_scan_as_on_one_cpu(monkeypatch, capsys, failing):
    """Chunks 1 and 3 are the worker's, chunk 2 the parent's: either way
    the scan writes the chunks before the failing one, reports its error
    with the serial exit status, and leaves no process behind."""
    chunk_formatter = cli._chunk_formatter

    def failing_chunk_formatter(fmt):
        chunk_text = chunk_formatter(fmt)

        def failing_chunk_text(chunk):
            if chunk[0] == failing * CHUNK:
                raise ValueError(f"chunk {failing} failed")
            return chunk_text(chunk)

        return failing_chunk_text

    monkeypatch.setattr(cli, "_chunk_formatter", failing_chunk_formatter)
    results = []
    for cpus in (2, 1):
        monkeypatch.setattr(haar, "_available_cpus", lambda: cpus)
        status = cli.main(["scan", "--samples", str(4 * CHUNK), "--seed", "2"])
        results.append((status, *capsys.readouterr()))
    assert results[0] == results[1]
    status, out, err = results[0]
    assert status == 2 and err == f"su4euler: chunk {failing} failed\n"
    assert len(out.splitlines()) == 1 + failing * CHUNK  # the header and the rows before
    _assert_no_child_left()


@needs_fork
def test_a_scan_to_a_closed_reader_ends_quietly_and_leaves_no_process(monkeypatch,
                                                                      capsys):
    monkeypatch.setattr(haar, "_available_cpus", lambda: 2)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed_reader:
        monkeypatch.setattr(sys, "stdout", closed_reader)
        assert cli.main(["scan", "--samples", "20000"]) == 1
        monkeypatch.undo()
    assert capsys.readouterr().err == ""
    _assert_no_child_left()


@needs_fork
def test_a_huge_scan_to_a_closed_reader_ends_quietly(monkeypatch, capsys):
    # More chunks than a C ssize_t counts: no len(range(...)) may see them.
    monkeypatch.setattr(haar, "_available_cpus", lambda: 2)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed_reader:
        monkeypatch.setattr(sys, "stdout", closed_reader)
        assert cli.main(["scan", "--samples", "9" * 25]) == 1
        monkeypatch.undo()
    assert capsys.readouterr().err == ""
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("target", ["process", "group"])
def test_ctrl_c_ends_a_scan_with_130_and_leaves_no_process(tmp_path, target):
    """SIGINT to the scan alone, or to its process group as a terminal's
    Ctrl-C sends it (the worker too), once the scan has begun to write."""
    out = tmp_path / "scan.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "su4euler", "scan", "--samples", str(10**7),
         "--output", str(out)],
        stderr=subprocess.PIPE, start_new_session=True,
        # A shell may start a background job with SIGINT ignored.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    pgid = proc.pid  # the leader of a new session heads its process group
    try:
        deadline = time.monotonic() + 120
        while not (out.exists() and out.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        if target == "process":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(pgid, signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(pgid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


@needs_fork
def test_split_scan_memory_does_not_grow_with_samples(monkeypatch, tmp_path):
    # The parent holds its own chunk and at most one of the worker's.
    monkeypatch.setattr(haar, "_available_cpus", lambda: 2)
    out = tmp_path / "scan.csv"

    def peak(samples):
        tracemalloc.start()
        try:
            assert cli.main(["scan", "--samples", str(samples),
                             "--output", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10**4), peak(6 * 10**4)
    assert abs(large - small) < 2**20
    _assert_no_child_left()
