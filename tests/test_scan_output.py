"""The streaming scan writer against a record-list reference writer.

The reference builds the whole output state by state from the chunks of the
library's scan/corner_scan: every field through repr(float), and JSON as one
json.dumps(sort_keys=True, indent=2) of the whole document.  The CLI writes
the same bytes chunk by chunk from the classification columns.
"""

import json

import pytest

from su4euler import __version__, cli, corner_scan, scan

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


def reference_output(fmt, corners=False, samples=1000, seed=0,
                     tolerance=1e-10) -> str:
    if corners:
        chunks = corner_scan(tolerance)
        config = {"mode": "corners", "tolerance": tolerance}
    else:
        chunks = scan(samples, seed=seed, tolerance=tolerance)
        config = {"mode": "random", "samples": samples, "seed": seed,
                  "tolerance": tolerance}
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
    "tolerance": {"samples": 300, "seed": 9, "tolerance": 1e-4},
    "corners": {"corners": True},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_streamed_output_equals_reference(tmp_path, case, fmt):
    out = tmp_path / f"scan.{fmt}"
    assert cli.main(_argv(fmt, CASES[case]) + ["--output", str(out)]) == 0
    assert out.read_bytes() == reference_output(fmt, **CASES[case]).encode()


def test_stdout_equals_output_file(tmp_path, capsys):
    out = tmp_path / "scan.json"
    argv = _argv("json", CASES["default"])
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_nondefault_tolerance_moves_tallies():
    loose = reference_output("csv", **CASES["tolerance"]).splitlines()[-1]
    tight = reference_output("csv", samples=300, seed=9).splitlines()[-1]
    assert loose != tight


@pytest.mark.parametrize("args,tally", [
    (["--samples", "10000", "--seed", "1"], (2933, 7067, 0)),
    (["--samples", "10000", "--seed", "7"], (2892, 7108, 0)),
    (["--samples", "333", "--seed", "2"], (106, 227, 0)),
    (["--samples", "5000", "--seed", "9", "--tolerance", "1e-3"], (640, 2557, 1803)),
    (["--corners"], (4096, 0, 28672)),
], ids=["seed1", "seed7", "covering", "tolerance", "corners"])
def test_golden_scan_tallies(tmp_path, args, tally):
    """Verdict tallies of the golden scans, pinned where their hashes cannot
    be: the hashes follow the BLAS build, the verdicts should not."""
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", *args, "--output", str(out)]) == 0
    footer = out.read_text(encoding="utf-8").splitlines()[-1]
    separable, entangled, boundary = tally
    assert footer == (f"# summary separable={separable} entangled={entangled} "
                      f"boundary={boundary} total={sum(tally)}")
