"""Output checks for the benchmark, independent of the code under test.

Nothing here imports su4euler.  States are rebuilt from the printed angles
with generator exponentials taken from numpy's Hermitian eigensolver
(exp(i a lam) = Q diag(exp(i a e)) Q^dagger), the partial transpose is an
explicit index map, and d is an LU determinant.  Every check returns
``(failed_operations, problems)``; an empty problem list means the output
passed.
"""

import json
import math

import numpy as np

# Euler conjugation chain a1..a12 of the SU(4) parametrization.
CONJUGATION_GENERATORS = (3, 2, 3, 5, 3, 10, 3, 2, 3, 5, 3, 2)
# Upper ends of the SU(4) volume ranges a1..a15 (all lower ends are 0).
VOLUME_HIGHS = (np.pi, np.pi / 2, np.pi, np.pi / 2, np.pi, np.pi / 2, np.pi,
                np.pi / 2, np.pi, np.pi / 2, np.pi, np.pi / 2, np.pi,
                np.pi / np.sqrt(3.0), np.pi / np.sqrt(6.0))
SPECTRUM_LOW = (np.pi / 4, math.acos(1.0 / math.sqrt(3.0)), np.pi / 3)
SPECTRUM_HIGH = (np.pi / 2, np.pi / 2, np.pi / 2)
SU4_VOLUME = math.sqrt(2.0) * math.pi**9 / 3.0

# Tolerances: rebuilt states agree with the program's to ~1e-15; these leave
# two to three orders of margin while staying far below the scale of d
# (<= 1/256) and of the PT eigenvalues.
D_ATOL = 1e-12
EIG_ATOL = 1e-12
RESOLVENT_ATOL = 1e-8    # radical eigenvalues vs eigvalsh (acceptance criterion 9)
ONE_FORM_RTOL = 1e-8     # |det one-form| vs closed-form density (criterion 2)
DENSITY_RTOL = 1e-12     # program's closed-form density vs this module's
BLOCH_ATOL = 1e-13
VOLUME_SIGMAS = 5.0

_SCAN_ANGLES = [f"alpha{i}" for i in range(1, 13)] + ["theta1", "theta2", "theta3"]


def gell_mann(index: int) -> np.ndarray:
    """Generator lam_index of su(4), normalized Tr[lam_i lam_j] = 2 delta_ij."""
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    symmetric = dict(zip((1, 4, 6, 9, 11, 13), pairs))
    antisymmetric = dict(zip((2, 5, 7, 10, 12, 14), pairs))
    diagonal = {3: np.array((1, -1, 0, 0)),
                8: np.array((1, 1, -2, 0)) / math.sqrt(3.0),
                15: np.array((1, 1, 1, -3)) / math.sqrt(6.0)}
    lam = np.zeros((4, 4), dtype=complex)
    if index in symmetric:
        a, b = symmetric[index]
        lam[a, b] = lam[b, a] = 1.0
    elif index in antisymmetric:
        a, b = antisymmetric[index]
        lam[a, b], lam[b, a] = -1j, 1j
    elif index in diagonal:
        lam[np.diag_indices(4)] = diagonal[index]
    else:
        raise ValueError(f"generator index out of range 1..15: {index}")
    return lam


_EIGH = {g: np.linalg.eigh(gell_mann(g)) for g in set(CONJUGATION_GENERATORS)}


def generator_exp(index: int, angles: np.ndarray) -> np.ndarray:
    """Stack of exp(i angle lam_index) for a 1-D array of angles."""
    e, q = _EIGH[index]
    phases = np.exp(1j * np.multiply.outer(angles, e))
    return (q * phases[:, None, :]) @ q.conj().T


def spectrum(thetas: np.ndarray) -> np.ndarray:
    """Eigenvalues (w2 x2 y2, (1-w2) x2 y2, (1-x2) y2, 1-y2) per row."""
    w2, x2, y2 = (np.sin(thetas[:, j]) ** 2 for j in range(3))
    return np.stack([w2 * x2 * y2, (1 - w2) * x2 * y2, (1 - x2) * y2, 1 - y2],
                    axis=1)


def density(alphas: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of V diag(spectrum) V^dagger from 12 conjugation angles."""
    v = np.broadcast_to(np.eye(4, dtype=complex), (len(alphas), 4, 4))
    for pos, g in enumerate(CONJUGATION_GENERATORS):
        v = v @ generator_exp(g, alphas[:, pos])
    return (v * spectrum(thetas)[:, None, :]) @ v.conj().transpose(0, 2, 1)


# Row and column of rho feeding entry (2a+b, 2c+d) of its partial transpose
# over the second qubit: rho[2a+d, 2c+b].
_PT_ROWS = np.array([[2 * (r // 2) + c % 2 for c in range(4)] for r in range(4)])
_PT_COLS = np.array([[2 * (c // 2) + r % 2 for c in range(4)] for r in range(4)])


def partial_transpose_b(rho: np.ndarray) -> np.ndarray:
    return rho[:, _PT_ROWS, _PT_COLS]


def pt_determinant_and_spectrum(rho: np.ndarray):
    """(det, ascending eigenvalues) of the partial transposes of a stack."""
    pt = partial_transpose_b(rho)
    return np.linalg.det(pt).real, np.linalg.eigvalsh(pt)


def haar_density(points: np.ndarray) -> np.ndarray:
    """Closed-form SU(4) Haar density at rows of a1..a15."""
    a = points
    return (np.cos(a[:, 3]) ** 3 * np.cos(a[:, 5]) * np.cos(a[:, 9])
            * np.sin(2 * a[:, 1]) * np.sin(a[:, 3]) * np.sin(a[:, 5]) ** 5
            * np.sin(2 * a[:, 7]) * np.sin(a[:, 9]) ** 3 * np.sin(2 * a[:, 11]))


def _flag(value, true_word: str) -> bool:
    """Parse a flag printed as a word, a digit string, a number or a bool."""
    if isinstance(value, str):
        word = value.strip().lower()
        if word in (true_word, "1", "true"):
            return True
        if word in ("0", "false", "separable"):
            return False
        raise ValueError(f"unrecognised flag {value!r}")
    return bool(value)


def parse_scan(text: str, fmt: str):
    """(records, summary) of a scan output; record fields stay as printed."""
    if fmt == "json":
        body = json.loads(text)
        return body["records"], {k: int(v) for k, v in body["summary"].items()}
    lines = text.splitlines()
    header = lines[0].split(",")
    footer = lines[-1]
    if not footer.startswith("# summary "):
        raise ValueError("CSV footer missing")
    summary = {k: int(v) for k, v in
               (item.split("=") for item in footer[len("# summary "):].split())}
    records = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
    return records, summary


def check_scan(text: str, fmt: str, expected_rows: int):
    """Row count, footer tallies, and a rebuild of every record's state."""
    try:
        records, summary = parse_scan(text, fmt)
        angles = np.array([[float(r[k]) for k in _SCAN_ANGLES] for r in records])
        d = np.array([float(r["d"]) for r in records])
        min_eig = np.array([float(r["min_eig"]) for r in records])
        entangled = np.array([_flag(r["verdict"], "entangled") for r in records])
        boundary = np.array([_flag(r["boundary"], "1") for r in records])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return 1, [f"unparseable scan output: {exc!r}"]
    problems = []
    if len(records) != expected_rows:
        problems.append(f"row count {len(records)} != {expected_rows}")
    tallies = {
        "total": len(records),
        "entangled": int(entangled.sum()),
        "boundary": int(boundary.sum()),
        "separable": int((~entangled & ~boundary).sum()),
    }
    if summary != tallies:
        problems.append(f"footer {summary} != record tallies {tallies}")
    if len(records):
        d_ref, eig_ref = pt_determinant_and_spectrum(
            density(angles[:, :12], angles[:, 12:]))
        bad_d = int((np.abs(d - d_ref) > D_ATOL).sum())
        bad_eig = int((np.abs(min_eig - eig_ref[:, 0]) > EIG_ATOL).sum())
        bad_verdict = int((~boundary & (entangled != (eig_ref[:, 0] < 0))).sum())
        for count, what in ((bad_d, "d"), (bad_eig, "min_eig"),
                            (bad_verdict, "verdict vs PT min eigenvalue")):
            if count:
                problems.append(f"{count} records disagree on {what}")
    return int(bool(problems)), problems


def check_volume(text: str, expected_samples: int):
    """Monte Carlo SU(4) volume within VOLUME_SIGMAS standard errors."""
    try:
        payload = json.loads(text)["payload"]
        estimate = float(payload["estimate"])
        stderr = float(payload["standard_error"])
        samples = int(payload["samples_or_nodes"])
    except (ValueError, KeyError, TypeError) as exc:
        return 1, [f"unparseable volume output: {exc!r}"]
    problems = []
    if samples != expected_samples:
        problems.append(f"samples {samples} != {expected_samples}")
    if not (math.isfinite(stderr) and stderr > 0):
        problems.append(f"standard error {stderr!r} is not positive")
    elif abs(estimate - SU4_VOLUME) > VOLUME_SIGMAS * stderr:
        problems.append(f"estimate {estimate!r} is {abs(estimate - SU4_VOLUME) / stderr:.1f}"
                        f" standard errors from {SU4_VOLUME!r}")
    return int(bool(problems)), problems


def audit_inputs(rng: np.random.Generator, states: int) -> dict:
    """Random states (uniform angles over their boxes) for the library audit."""
    lo, hi = np.array(SPECTRUM_LOW), np.array(SPECTRUM_HIGH)
    return {
        "alphas": rng.random((states, 12)) * np.array(VOLUME_HIGHS[:12]),
        "thetas": lo + (hi - lo) * rng.random((states, 3)),
        "points": rng.random((states, 15)) * np.array(VOLUME_HIGHS),
    }


def check_audit(inputs: dict, outputs: dict):
    """Per-state audit of the library chain; each failing state is one
    failed operation."""
    n = len(inputs["alphas"])
    try:
        fields = {k: np.asarray(outputs[k]) for k in
                  ("entangled", "boundary", "d", "min_eig", "resolvent",
                   "bloch", "one_form", "haar_density")}
        if any(len(v) != n for v in fields.values()):
            raise ValueError("output length differs from input length")
    except (KeyError, ValueError) as exc:
        return n, [f"unusable audit output: {exc!r}"]
    d_ref, eig_ref = pt_determinant_and_spectrum(
        density(inputs["alphas"], inputs["thetas"]))
    resolvent = fields["resolvent"]
    returned = ~np.isnan(resolvent).any(axis=1)
    resolvent_err = np.where(
        returned, np.abs(np.sort(np.nan_to_num(resolvent), axis=1) - eig_ref).max(axis=1), 0.0)
    dens_ref = haar_density(inputs["points"])
    one_form_det = np.abs(np.linalg.det(fields["one_form"]))
    w = fields["bloch"]
    bloch_diag = (w[:, :1] + w[:, 1:2] * np.diag(gell_mann(3)).real
                  + w[:, 2:3] * np.diag(gell_mann(8)).real
                  + w[:, 3:4] * np.diag(gell_mann(15)).real)
    masks = {
        "d": np.abs(fields["d"] - d_ref) > D_ATOL,
        "min_eig": np.abs(fields["min_eig"] - eig_ref[:, 0]) > EIG_ATOL,
        "verdict": ~fields["boundary"] & (fields["entangled"] != (eig_ref[:, 0] < 0)),
        "resolvent eigenvalues": ~(resolvent_err <= RESOLVENT_ATOL),
        "one-form |det|": ~(np.abs(one_form_det - dens_ref) <= ONE_FORM_RTOL * dens_ref),
        "haar_density": ~(np.abs(fields["haar_density"] - dens_ref)
                          <= DENSITY_RTOL * dens_ref),
        "bloch": ~(np.abs(bloch_diag - spectrum(inputs["thetas"])).max(axis=1)
                   <= BLOCH_ATOL),
    }
    failed = np.zeros(n, dtype=bool)
    problems = []
    for what, mask in masks.items():
        failed |= mask
        if mask.any():
            problems.append(f"{int(mask.sum())} states fail the {what} check")
    return int(failed.sum()), problems
