"""Partial-transpose separability test in its determinant form.

For a two-qubit state the partially transposed matrix has at most one
negative eigenvalue, so the sign of the constant characteristic-polynomial
coefficient d (the determinant) decides entanglement: d < 0 iff entangled.
The quartic/resolvent-cubic eigenvalue path is kept alongside as the
radical-formula route and is validated against the Hermitian eigensolver.

classify is the one classification kernel and works on (..., 4, 4) stacks:
classify_chunks feeds it chunks of composed states for scan, corner_scan
and the CLI's streaming scan writer, and is_entangled is its single-matrix
case.
"""

import cmath
import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import SPECTRUM_LOWER, SPECTRUM_UPPER, rho_full
from .errors import ValidationError
from .euler import range_profile
from .haar import chunk_sizes, sample_haar_angles, split_streams


class CharPolyCoeffs(NamedTuple):
    """Coefficients of det(M - x I) = x^4 + a x^3 + b x^2 + c x + d."""

    a: float
    b: float
    c: float
    d: float


class DepressedQuartic(NamedTuple):
    """Coefficients of t^4 + p t^2 + q t + r after the shift t = x - 1/4."""

    p: float
    q: float
    r: float


@dataclass(frozen=True)
class ResolventRoots:
    """Roots of g^3 + 2p g^2 + (p^2 - 4r) g - q^2; branch_valid marks all
    three real and nonnegative within 1e-10."""

    gammas: tuple
    branch_valid: bool


@dataclass(frozen=True)
class SeparabilityVerdict:
    entangled: bool
    d_value: float
    min_eigenvalue: float
    negative_count: int
    boundary: bool


class Classification(NamedTuple):
    """Per-state columns from classify, each shaped like the input stack."""

    d: np.ndarray
    min_eig: np.ndarray
    neg_count: np.ndarray
    entangled: np.ndarray
    boundary: np.ndarray


@dataclass(frozen=True)
class ScanRecord:
    sample_index: int
    alphas: tuple
    thetas: tuple
    d: float
    min_eig: float
    neg_count: int
    entangled: bool
    boundary: bool


def partial_transpose(rho: np.ndarray, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a (stack of) 4x4 two-qubit operators.

    Basis ordering |q_A q_B> -> 2 q_A + q_B.  Subsystem B transposes each
    2x2 block in place, subsystem A transposes the block grid.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing shape (4, 4), got {rho.shape}")
    if subsystem == "B":
        perm = (0, 3, 2, 1)
    elif subsystem == "A":
        perm = (2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    lead = rho.shape[:-2]
    n = len(lead)
    blocks = rho.reshape(*lead, 2, 2, 2, 2)
    axes = tuple(range(n)) + tuple(n + p for p in perm)
    return blocks.transpose(axes).reshape(*lead, 4, 4)


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-13,
                            trace_tol: float = 1e-13,
                            psd_tol: float = 1e-12) -> None:
    """Raise ValidationError naming the violated density-matrix invariant.

    Accepts one 4x4 matrix or a (..., 4, 4) stack; every state must pass
    every check, and a failure in a stack names the first offending state.
    Finiteness is checked first: a NaN entry fails no comparison below.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValidationError(
            f"shape invariant violated: expected trailing (4, 4), got {rho.shape}")

    def check(bad, message, values):
        if np.count_nonzero(bad):
            first = np.unravel_index(np.argmax(bad), bad.shape)
            where = f" at state {tuple(map(int, first))}" if bad.ndim else ""
            raise ValidationError(message.format(values[first]) + where)

    nonfinite = np.count_nonzero(~np.isfinite(rho), axis=(-2, -1))
    check(nonfinite > 0,
          "finiteness invariant violated: {} of 16 entries not finite", nonfinite)
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    check(herm > herm_tol, "hermiticity invariant violated: residue {:.3e}", herm)
    tr = np.trace(rho, axis1=-2, axis2=-1)
    check(abs(tr - 1.0) > trace_tol, "trace invariant violated: trace {:.17g}", tr)
    min_eig = np.linalg.eigvalsh(rho)[..., 0]
    check(min_eig < -psd_tol, "positivity invariant violated: min eigenvalue {:.3e}",
          min_eig)


def char_poly_coeffs(m: np.ndarray) -> CharPolyCoeffs:
    """Characteristic-polynomial coefficients by the Faddeev-LeVerrier
    trace recursion; no root finding involved.  Accepts (..., 4, 4) stacks,
    returning array-valued fields for stacked input."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing shape (4, 4), got {m.shape}")
    eye = np.eye(4, dtype=complex)

    def tr(x):
        return np.trace(x, axis1=-2, axis2=-1)

    m1 = m
    c1 = -tr(m1)
    m2 = m @ (m1 + c1[..., None, None] * eye)
    c2 = -tr(m2) / 2.0
    m3 = m @ (m2 + c2[..., None, None] * eye)
    c3 = -tr(m3) / 3.0
    m4 = m @ (m3 + c3[..., None, None] * eye)
    c4 = -tr(m4) / 4.0
    if m.ndim == 2:
        return CharPolyCoeffs(float(c1.real), float(c2.real),
                              float(c3.real), float(c4.real))
    return CharPolyCoeffs(c1.real, c2.real, c3.real, c4.real)


def depressed_quartic(coeffs: CharPolyCoeffs) -> DepressedQuartic:
    """Shift x = t + 1/4 applied to a unit-trace characteristic polynomial.

    Derived by direct expansion:

        p = b - 3/8,  q = b/2 + c - 1/8,  r = b/16 + c/4 + d - 3/256.
    """
    a, b, c, d = coeffs
    if abs(a + 1.0) > 1e-9:
        raise ValueError(f"shift requires a = -1 (unit trace); got a = {a!r}")
    p = b - 3.0 / 8.0
    q = 0.5 * b + c - 1.0 / 8.0
    r = b / 16.0 + c / 4.0 + d - 3.0 / 256.0
    return DepressedQuartic(p, q, r)


def resolvent_roots(dq: DepressedQuartic) -> ResolventRoots:
    """Cardano solution of the resolvent cubic, principal cube-root branch,
    one Newton polish per root."""
    p, q, r = dq
    a2 = 2.0 * p
    a1 = p * p - 4.0 * r
    a0 = -q * q
    # Depressed form t^3 + P t + Q with g = t - a2/3.
    big_p = a1 - a2 * a2 / 3.0
    big_q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = (big_q / 2.0) ** 2 + (big_p / 3.0) ** 3
    s = cmath.sqrt(complex(disc))
    u_cubed = -big_q / 2.0 + s
    scale = max(abs(big_p) ** 1.5, abs(big_q), 1e-300)
    omega = cmath.exp(2j * cmath.pi / 3.0)
    if abs(u_cubed) <= 1e-14 * scale:
        # Degenerate branch: P ~ 0, roots of t^3 = -Q.
        w = (-big_q) ** (1.0 / 3.0) if big_q <= 0 else -(big_q ** (1.0 / 3.0))
        ts = [w * omega**k for k in range(3)]
    else:
        u = u_cubed ** (1.0 / 3.0)
        v = -big_p / (3.0 * u)
        ts = [u * omega**k + v * omega**-k for k in range(3)]
    gammas = []
    for t in ts:
        g = t - a2 / 3.0
        fp = 3.0 * g * g + 2.0 * a2 * g + a1
        if abs(fp) > 1e-8:
            g = g - (g**3 + a2 * g * g + a1 * g + a0) / fp
        gammas.append(g)
    branch_valid = all(abs(g.imag) <= 1e-10 and g.real >= -1e-10 for g in gammas)
    return ResolventRoots(tuple(gammas), branch_valid)


def eigenvalues_via_resolvent(dq: DepressedQuartic) -> np.ndarray | None:
    """Quartic roots from the resolvent radicals, shifted back by +1/4.

    Square-root signs are fixed by s1 s2 s3 = -q, which makes the four t
    values sum to zero.  Returns None when the resolvent branch is invalid
    (caller falls back to the Hermitian eigensolver).  A final guarded
    Newton step per root absorbs the precision loss of sqrt near small
    resolvent roots.
    """
    rr = resolvent_roots(dq)
    if not rr.branch_valid:
        return None
    p, q, r = dq
    s = np.sqrt(np.maximum([g.real for g in rr.gammas], 0.0))
    if q > 0.0:
        s[2] = -s[2]
    t = 0.5 * np.array([
        s[0] + s[1] + s[2],
        s[0] - s[1] - s[2],
        -s[0] + s[1] - s[2],
        -s[0] - s[1] + s[2],
    ])
    f = t**4 + p * t**2 + q * t + r
    fp = 4.0 * t**3 + 2.0 * p * t + q
    safe = np.abs(fp) > 1e-6
    t[safe] -= f[safe] / fp[safe]
    return t + 0.25


def classify(rho: np.ndarray, tolerance: float = 1e-10,
             subsystem: str = "B") -> Classification:
    """Classify (..., 4, 4) density matrices by the sign of d = det(rho^pt).

    Validates the tolerance (finite, >= 0) and every state, then returns
    columns shaped like the stack: d by Faddeev-LeVerrier, and the minimum
    eigenvalue and negative-eigenvalue count of the partial transpose for
    audit.  The audit must agree with the d verdict whenever |d| exceeds
    the tolerance.
    """
    if not 0.0 <= tolerance < np.inf:  # NaN fails both comparisons
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    validate_density_matrix(rho)
    pt = partial_transpose(rho, subsystem)
    d = char_poly_coeffs(pt).d
    eigs = np.linalg.eigvalsh(pt)
    return Classification(
        d=d,
        min_eig=eigs[..., 0],
        neg_count=(eigs < -tolerance).sum(axis=-1),
        entangled=d < -tolerance,
        boundary=abs(d) <= tolerance,
    )


def is_entangled(rho: np.ndarray, tolerance: float = 1e-10,
                 subsystem: str = "B") -> SeparabilityVerdict:
    """Verdict for one two-qubit density matrix; see classify."""
    if np.shape(rho) != (4, 4):
        raise ValidationError(
            f"shape invariant violated: expected (4, 4), got {np.shape(rho)}")
    c = classify(rho, tolerance, subsystem)
    return SeparabilityVerdict(
        entangled=bool(c.entangled),
        d_value=c.d,
        min_eigenvalue=float(c.min_eig),
        negative_count=int(c.neg_count),
        boundary=bool(c.boundary),
    )


def classify_chunks(chunks, tolerance: float):
    """Yield (start, alphas, thetas, Classification) for each (alphas,
    thetas) chunk of states V(alphas) rho_d(thetas) V^dagger, start being
    the sample index of the chunk's first state."""
    start = 0
    for a, t in chunks:
        yield start, a, t, classify(rho_full(a, t), tolerance)
        start += len(a)


def _records(chunks, tolerance: float) -> list:
    records = []
    for start, a, t, c in classify_chunks(chunks, tolerance):
        rows = zip(map(tuple, a.tolist()), map(tuple, t.tolist()),
                   *(col.tolist() for col in c))
        records.extend(ScanRecord(i, *row) for i, row in enumerate(rows, start))
    return records


def scan_angles(samples: int, seed: int = 0, angle_profile: str = "volume",
                spectrum_policy="uniform", workers: int = 1):
    """Yield the (alphas, thetas) of the states scan classifies, in sample
    order, as chunks of haar.CHUNK states (the last may be shorter) shaped
    (n, 12) and (n, 3).

    Each sub-stream of split_streams draws its n_w states piece by piece,
    a chunk taking pieces from as many sub-streams as it spans: the 15 Haar
    angles per state from the sub-stream's generator, and the uniform
    spectrum angles from a copy of that generator advanced past the
    sub-stream's 15 * n_w Haar doubles.  The draws therefore equal one Haar
    draw of the whole block followed by one spectrum draw.  The arguments
    are checked when the first chunk is requested.  See scan.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    profile = range_profile("su4", angle_profile)
    fixed_theta = None
    if not (isinstance(spectrum_policy, str) and spectrum_policy == "uniform"):
        fixed_theta = tuple(float(t) for t in spectrum_policy)
        if len(fixed_theta) != 3:
            raise ValueError("fixed spectrum policy needs three angles")

    lo, hi = np.array(SPECTRUM_LOWER), np.array(SPECTRUM_UPPER)
    streams = split_streams(seed, workers, samples)
    left = 0  # states not yet drawn from the current sub-stream
    for size in chunk_sizes(samples):
        alphas, thetas = [], []
        while size:
            if not left:
                rng, left = next(streams)
                spectrum = np.random.Generator(
                    copy.deepcopy(rng.bit_generator).advance(profile.dim * left))
            n = min(size, left)
            alphas.append(sample_haar_angles(rng, profile, size=n)[:, :12])
            if fixed_theta is None:
                thetas.append(lo + (hi - lo) * spectrum.random((n, 3)))
            size -= n
            left -= n
        alphas = np.concatenate(alphas)
        if fixed_theta is None:
            yield alphas, np.concatenate(thetas)
        else:
            yield alphas, np.broadcast_to(fixed_theta, (len(alphas), 3))


def scan(samples: int, seed: int = 0, angle_profile: str = "volume",
         spectrum_policy="uniform", tolerance: float = 1e-10,
         workers: int = 1) -> list:
    """Classify random states drawn from the Haar angle sampler.

    The 12 conjugation angles come from the Haar sampler restricted to
    a1..a12; spectrum angles are uniform over their profile unless
    spectrum_policy is a fixed (t1, t2, t3) triple.

    workers counts RNG sub-streams, drawn serially in this process (see
    haar.split_streams): record order follows the sample index, and the
    records depend only on (seed, min(workers, samples)).  States are
    drawn, composed, conjugated and classified in chunks of at most
    haar.CHUNK states (scan_angles, classify_chunks).
    """
    return _records(scan_angles(samples, seed, angle_profile,
                                spectrum_policy, workers), tolerance)


def corner_angles():
    """Yield the (alphas, thetas) of the 2^15 min/max parameter corners as
    eight chunks of 4096 states, one per spectrum corner; see corner_scan."""
    alpha_bounds = np.array(range_profile("su4", "volume").bounds[:12])
    alpha_bits = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    theta_bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    alpha_corners = alpha_bounds[np.arange(12), alpha_bits]
    for theta in np.where(theta_bits, SPECTRUM_UPPER, SPECTRUM_LOWER):
        yield alpha_corners, np.broadcast_to(theta, (4096, 3))


def corner_scan(tolerance: float = 1e-10) -> list:
    """Exhaustive classification at all 2^15 min/max parameter corners.

    Sample index t * 4096 + m: bit b of m selects the upper endpoint of
    a_{b+1} (b < 12), bit j of t the upper endpoint of t_{j+1}.  The corner
    grid runs through the same kernel as scan.
    """
    return _records(corner_angles(), tolerance)
