"""Partial-transpose separability test in its determinant form.

For a two-qubit state the partially transposed matrix has at most one
negative eigenvalue, so the sign of the constant characteristic-polynomial
coefficient d (the determinant) decides entanglement: d < 0 iff entangled.
The quartic/resolvent-cubic eigenvalue path is kept alongside as the
radical-formula route and is validated against the Hermitian eigensolver.

classify is the one classification kernel and works on (..., 4, 4) stacks.
It and is_entangled, its single-matrix case, validate the caller's matrices.
scan and corner_scan, whose chunks the CLI streams, build their states from
angles, valid by construction, and skip that check.
"""

import cmath
import copy
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import SPECTRUM_LOWER, SPECTRUM_UPPER, rho_full
from .errors import ValidationError
from .euler import range_profile
from .haar import _is_integer, _seeded_rng, chunk_sizes, sample_haar_angles


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


_HERM_TOL, _TRACE_TOL, _PSD_TOL = 1e-13, 1e-13, 1e-12  # validate_density_matrix bounds


def validate_density_matrix(rho: np.ndarray) -> None:
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
    check(herm > _HERM_TOL, "hermiticity invariant violated: residue {:.3e}", herm)
    tr = np.trace(rho, axis1=-2, axis2=-1)
    check(abs(tr - 1.0) > _TRACE_TOL, "trace invariant violated: trace {:.17g}", tr)
    min_eig = np.linalg.eigvalsh(rho)[..., 0]
    check(min_eig < -_PSD_TOL, "positivity invariant violated: min eigenvalue {:.3e}",
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


def _classify(rho: np.ndarray, tolerance: float, subsystem: str) -> Classification:
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


def _check_tolerance(tolerance: float) -> None:
    # NaN fails both comparisons; bool is a Real but no tolerance.
    if not (isinstance(tolerance, numbers.Real) and not isinstance(tolerance, bool)
            and 0.0 <= tolerance < np.inf):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")


def classify(rho: np.ndarray, tolerance: float = 1e-10,
             subsystem: str = "B") -> Classification:
    """Classify (..., 4, 4) density matrices by the sign of d = det(rho^pt).

    Validates the tolerance (finite, >= 0) and every caller state, then
    returns columns shaped like the stack: d by Faddeev-LeVerrier, and the
    minimum eigenvalue and negative-eigenvalue count of the partial
    transpose for audit.  The audit must agree with the d verdict whenever
    |d| exceeds the tolerance.
    """
    _check_tolerance(tolerance)
    validate_density_matrix(rho)
    return _classify(rho, tolerance, subsystem)


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
    """Iterator of (start, alphas, thetas, Classification) for each (alphas,
    thetas) chunk of states V(alphas) rho_d(thetas) V^dagger, start being
    the sample index of the chunk's first state.  The tolerance is checked
    at the call; rho_full rejects non-finite angles, and the states it
    builds from finite ones are valid by construction, so
    validate_density_matrix and its eigensolver are skipped."""
    _check_tolerance(tolerance)

    def classified():
        start = 0
        for a, t in chunks:
            yield start, a, t, _classify(rho_full(a, t), tolerance, "B")
            start += len(a)

    return classified()


def _fixed_spectrum(spectrum_policy):
    """None for the "uniform" spectrum policy, else its three fixed angles."""
    if isinstance(spectrum_policy, str) and spectrum_policy == "uniform":
        return None
    theta = (tuple(spectrum_policy) if np.iterable(spectrum_policy)
             and not isinstance(spectrum_policy, str) else ())
    try:
        fixed = tuple(float(t) for t in theta
                      if isinstance(t, numbers.Real) and not isinstance(t, bool))
    except OverflowError:  # an int too large for a float
        fixed = ()
    if not (len(theta) == len(fixed) == 3 and np.isfinite(fixed).all()):
        raise ValueError("spectrum_policy must be 'uniform' or three finite "
                         f"angles, got {spectrum_policy!r}")
    return fixed


def scan_angles(samples: int, seed: int = 0, spectrum_policy="uniform"):
    """Iterator of the (alphas, thetas) of the states scan classifies, in
    sample order, as chunks of haar.CHUNK states (the last may be shorter)
    shaped (n, 12) and (n, 3).  The arguments are checked at the call.

    The alphas are the first 12 of the 15 Haar angles drawn over the SU(4)
    covering ranges, so the conjugations V(alphas) are Haar on the group.
    The 15 Haar angles per state come from the seeded generator, and the
    uniform spectrum angles from a copy of it advanced past all
    15 * samples Haar doubles.  The chunks therefore equal one Haar draw of
    every state followed by one spectrum draw.  See scan.
    """
    if not (_is_integer(samples) and samples >= 1):
        raise ValueError(f"samples must be >= 1 and an integer, got {samples!r}")
    profile = range_profile("su4", "covering")
    fixed_theta = _fixed_spectrum(spectrum_policy)
    rng = _seeded_rng(seed)
    spectrum = np.random.Generator(
        copy.deepcopy(rng.bit_generator).advance(profile.dim * samples))
    lo, hi = np.array(SPECTRUM_LOWER), np.array(SPECTRUM_UPPER)

    def drawn():
        for n in chunk_sizes(samples):
            alphas = sample_haar_angles(rng, profile, n)[:, :12]
            if fixed_theta is None:
                yield alphas, lo + (hi - lo) * spectrum.random((n, 3))
            else:
                yield alphas, np.broadcast_to(fixed_theta, (n, 3))

    return drawn()


def scan(samples: int, seed: int = 0, spectrum_policy="uniform",
         tolerance: float = 1e-10):
    """Classify random states V rho_d V^dagger with Haar-random V.

    The 12 conjugation angles are a1..a12 of the Haar sampler over the SU(4)
    covering ranges, whose draws are Haar on the group (the volume ranges
    are an integration domain, and their draws are not).  Spectrum angles
    are uniform over their profile unless spectrum_policy is a fixed
    (t1, t2, t3) triple of finite reals; anything but "uniform" or such a
    triple raises ValueError.

    Returns an iterator of (start, alphas, thetas, Classification), one per
    chunk of at most haar.CHUNK states in sample order (start is the sample
    index of the chunk's first state), so memory does not grow with samples.
    Every argument is checked at the call, before any state is drawn.  All
    states come from one seeded generator: the output depends only on the
    arguments.
    """
    return classify_chunks(scan_angles(samples, seed, spectrum_policy), tolerance)


def corner_angles():
    """Yield the (alphas, thetas) of the 2^15 min/max parameter corners as
    eight chunks of 4096 states, one per spectrum corner; see corner_scan."""
    alpha_bounds = np.array(range_profile("su4", "volume").bounds[:12])
    alpha_bits = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    theta_bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    alpha_corners = alpha_bounds[np.arange(12), alpha_bits]
    for theta in np.where(theta_bits, SPECTRUM_UPPER, SPECTRUM_LOWER):
        yield alpha_corners, np.broadcast_to(theta, (4096, 3))


def corner_scan(tolerance: float = 1e-10):
    """Exhaustive classification at all 2^15 min/max parameter corners.

    Returns scan's chunk iterator over eight chunks of 4096 states; the
    tolerance is checked at the call.  Sample index t * 4096 + m: bit b of m
    selects the upper endpoint of a_{b+1} (b < 12), bit j of t the upper
    endpoint of t_{j+1}.
    """
    return classify_chunks(corner_angles(), tolerance)
