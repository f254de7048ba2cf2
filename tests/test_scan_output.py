"""The streaming scan writer against a record-list reference writer.

The reference builds the whole output from the ScanRecord lists of the
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


def _record_fields(rec) -> list:
    return ([str(rec.sample_index)]
            + [_fmt(a) for a in rec.alphas]
            + [_fmt(t) for t in rec.thetas]
            + [_fmt(rec.d), _fmt(rec.min_eig), str(rec.neg_count),
               "entangled" if rec.entangled else "separable",
               str(int(rec.boundary))])


def _summary(records) -> dict:
    entangled = sum(r.entangled for r in records)
    boundary = sum(r.boundary for r in records)
    return {
        "total": len(records),
        "entangled": entangled,
        "boundary": boundary,
        "separable": len(records) - entangled - boundary,
    }


def reference_output(fmt, corners=False, samples=1000, seed=0,
                     profile="volume", tolerance=1e-10, workers=1) -> str:
    if corners:
        records = corner_scan(tolerance)
        config = {"mode": "corners", "tolerance": tolerance}
    else:
        records = scan(samples, seed=seed, angle_profile=profile,
                       tolerance=tolerance, workers=workers)
        config = {"mode": "random", "samples": samples, "seed": seed,
                  "profile": profile, "tolerance": tolerance,
                  "workers": workers}
    summary = _summary(records)
    if fmt == "csv":
        lines = [",".join(_HEADER)]
        lines.extend(",".join(_record_fields(r)) for r in records)
        lines.append("# summary separable={separable} entangled={entangled} "
                     "boundary={boundary} total={total}".format(**summary))
        return "\n".join(lines) + "\n"
    body = {
        "command": "scan",
        "config": config,
        "records": [dict(zip(_HEADER, _record_fields(r))) for r in records],
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
    "chunk-boundary": {"samples": 4097, "seed": 3, "workers": 3},
    "covering": {"samples": 333, "seed": 2, "profile": "covering"},
    "tolerance": {"samples": 300, "seed": 9, "tolerance": 1e-4},
    "corners": {"corners": True},
}


@pytest.fixture(autouse=True)
def _no_workers_env(monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)


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
    (["--samples", "10000", "--seed", "1"], (2901, 7099, 0)),
    (["--samples", "10000", "--seed", "7", "--workers", "3"], (2884, 7116, 0)),
    (["--samples", "333", "--seed", "2", "--profile", "covering"], (106, 227, 0)),
    (["--samples", "5000", "--seed", "9", "--tolerance", "1e-3"], (649, 2563, 1788)),
    (["--corners"], (4096, 0, 28672)),
], ids=["seed1", "seed7-workers3", "covering", "tolerance", "corners"])
def test_golden_scan_tallies(tmp_path, args, tally):
    """Verdict tallies of the golden scans, pinned where their hashes cannot
    be: the hashes follow the BLAS build, the verdicts should not."""
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", *args, "--output", str(out)]) == 0
    footer = out.read_text(encoding="utf-8").splitlines()[-1]
    separable, entangled, boundary = tally
    assert footer == (f"# summary separable={separable} entangled={entangled} "
                      f"boundary={boundary} total={sum(tally)}")
