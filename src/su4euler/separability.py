"""Partial-transpose separability test in its determinant form.

For a two-qubit state the partially transposed matrix has at most one
negative eigenvalue, so the sign of d = det(rho^pt), the product of its
eigenvalues from the Hermitian eigensolver, decides entanglement: d < 0 iff
entangled.  d is read against one fixed cut: entangled when d < -1e-10,
boundary when |d| <= 1e-10, separable otherwise.  rho^pt transposes
subsystem B only: rho^{T_A} = (rho^{T_B})^T has the same spectrum.  The
Faddeev-LeVerrier coefficients feed only the quartic/resolvent-cubic
eigenvalue path, the radical-formula route, which is validated against the
eigensolver.

classify is the one classification kernel and works on (..., 4, 4) stacks.
It and is_entangled, its single-matrix case, validate the caller's matrices.
scan and corner_scan, whose chunks the CLI streams, build their states from
angles, valid by construction, and skip that check.  Either can classify
every n-th chunk only (part), so that two processes split one scan.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from .density import CONJUGATION_SEQUENCE, SPECTRUM_LOWER, SPECTRUM_UPPER, conjugate
from .errors import ValidationError, _is_integer, _shown
from .euler import compose, range_profile
from .haar import _advanced, _seeded_rng, chunk_sizes, sample_haar_angles


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


class ResolventRoots(NamedTuple):
    """Roots of g^3 + 2p g^2 + (p^2 - 4r) g - q^2; branch_valid marks all
    three real and nonnegative within 1e-10."""

    gammas: tuple
    branch_valid: bool


class SeparabilityVerdict(NamedTuple):
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


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose subsystem B of a (stack of) 4x4 two-qubit operators.

    Basis ordering |q_A q_B> -> 2 q_A + q_B: each 2x2 block is transposed
    in place.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing shape (4, 4), got {rho.shape}")
    lead = rho.shape[:-2]
    n = len(lead)
    blocks = rho.reshape(*lead, 2, 2, 2, 2)
    axes = tuple(range(n)) + tuple(n + p for p in (0, 3, 2, 1))
    return blocks.transpose(axes).reshape(*lead, 4, 4)


_HERM_TOL, _TRACE_TOL, _PSD_TOL = 1e-13, 1e-13, 1e-12  # validate_density_matrix bounds


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValidationError naming the violated density-matrix invariant.

    Accepts one 4x4 matrix or a (..., 4, 4) stack; every state must pass
    every check, and a failure in a stack names the first offending state.
    Finiteness is checked first, so a non-finite entry is named as such.
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
    # Finite entries near the float limit can take a residue or the
    # eigensolver to inf or nan.  numpy need not warn: each check below
    # passes only a number within its bound, so inf and nan fail it.
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        tr = np.trace(rho, axis1=-2, axis2=-1)
    check(~(herm <= _HERM_TOL), "hermiticity invariant violated: residue {:.3e}", herm)
    check(~(abs(tr - 1.0) <= _TRACE_TOL), "trace invariant violated: trace {:.17g}", tr)
    min_eig = np.linalg.eigvalsh(rho)[..., 0]
    check(~(min_eig >= -_PSD_TOL),
          "positivity invariant violated: min eigenvalue {:.3e}", min_eig)


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
    if not abs(a + 1.0) <= 1e-9:
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
    s0, s1, s2 = (math.sqrt(max(g.real, 0.0)) for g in rr.gammas)
    if q > 0.0:
        s2 = -s2
    roots = []
    for t in (0.5 * (s0 + s1 + s2), 0.5 * (s0 - s1 - s2),
              0.5 * (-s0 + s1 - s2), 0.5 * (-s0 - s1 + s2)):
        fp = 4.0 * t**3 + 2.0 * p * t + q
        if abs(fp) > 1e-6:
            t -= (t**4 + p * t**2 + q * t + r) / fp
        roots.append(t + 0.25)
    return np.array(roots)


# The one verdict cut, on d and on the PT eigenvalues that neg_count counts.
# Fixed, not chosen, yet it bounds no error: d is quartic in the eigenvalues.
_CUT = 1e-10


def _classify(rho: np.ndarray) -> Classification:
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    d = eigs.prod(axis=-1)
    return Classification(
        d=d,
        min_eig=eigs[..., 0],
        neg_count=(eigs < -_CUT).sum(axis=-1),
        entangled=d < -_CUT,
        boundary=abs(d) <= _CUT,
    )


def classify(rho: np.ndarray) -> Classification:
    """Classify (..., 4, 4) density matrices by the sign of d = det(rho^pt).

    Validates every caller state, then returns columns shaped like the
    stack from one eigensolve of the partial transpose: d, the product of its
    eigenvalues, entangled when d < -1e-10 and boundary when |d| <= 1e-10,
    and for audit its minimum eigenvalue and count of eigenvalues below
    -1e-10, agreeing with the d verdict whenever |d| > 1e-10.  The cut is fixed.
    """
    validate_density_matrix(rho)
    return _classify(rho)


def is_entangled(rho: np.ndarray) -> SeparabilityVerdict:
    """Verdict for one two-qubit density matrix; see classify."""
    if np.shape(rho) != (4, 4):
        raise ValidationError(
            f"shape invariant violated: expected (4, 4), got {np.shape(rho)}")
    c = classify(rho)
    return SeparabilityVerdict(
        entangled=bool(c.entangled),
        d_value=float(c.d),
        min_eigenvalue=float(c.min_eig),
        negative_count=int(c.neg_count),
        boundary=bool(c.boundary),
    )


def classify_chunks(chunks, *, part=(0, 1)):
    """Yield (start, alphas, thetas, Classification) for chunks k, k + n,
    k + 2n, ... of the (alphas, thetas) chunks of states V(alphas)
    rho_d(thetas) V^dagger, where part = (k, n) with 0 <= k < n; start is
    the sample index of the chunk's first state, counted over every chunk.
    The verdicts are classify's.

    Chunks that pass one alphas array in a row, as the corner chunks do,
    share one composition of V: it is the same V, so no bit moves.  compose
    and conjugate reject non-finite angles, and the states built from finite
    ones are valid by construction, so validate_density_matrix and its
    eigensolver are skipped.  part is checked at the call."""
    if not (len(part) == 2 and all(map(_is_integer, part)) and 0 <= part[0] < part[1]):
        raise ValueError(f"part must be integers (k, n) with 0 <= k < n, got {_shown(part)}")
    k, n = part

    def classified():
        start, alphas, v = 0, None, None
        for index, (a, t) in enumerate(chunks):
            if index % n == k:
                if a is not alphas:
                    alphas, v = a, compose(CONJUGATION_SEQUENCE, a)
                yield start, a, t, _classify(conjugate(v, t))
            start += len(a)

    return classified()


def scan_angles(samples: int, seed: int = 0):
    """Iterator of the (alphas, thetas) of the states scan classifies, in
    sample order, as chunks of haar.CHUNK states (the last may be shorter)
    shaped (n, 12) and (n, 3).  The arguments are checked at the call.

    The alphas are the first 12 of the 15 Haar angles drawn over the SU(4)
    covering ranges, so the conjugations V(alphas) are Haar on the group.
    The 15 Haar angles per state come from the seeded generator, and the
    spectrum angles, uniform over their profile, from a copy of it advanced
    past all 15 * samples Haar doubles.  The chunks therefore equal one Haar
    draw of every state followed by one spectrum draw.  See scan.
    """
    if not (_is_integer(samples) and samples >= 1):
        raise ValueError(f"samples must be >= 1 and an integer, got {samples!r}")
    profile = range_profile("su4", "covering")
    rng = _seeded_rng(seed)
    spectrum = _advanced(rng, profile.dim * samples)
    lo, hi = np.array(SPECTRUM_LOWER), np.array(SPECTRUM_UPPER)

    def drawn():
        for n in chunk_sizes(samples):
            alphas = sample_haar_angles(rng, profile, n)[:, :12]
            yield alphas, lo + (hi - lo) * spectrum.random((n, 3))

    return drawn()


def scan(samples: int, seed: int = 0, *, part=(0, 1)):
    """Classify random states V rho_d V^dagger with Haar-random V.

    The 12 conjugation angles are a1..a12 of the Haar sampler over the SU(4)
    covering ranges, whose draws are Haar on the group (the volume ranges
    are an integration domain, and their draws are not).  The spectrum
    angles are uniform over their profile.

    Returns an iterator of (start, alphas, thetas, Classification), one per
    chunk of at most haar.CHUNK states in sample order (start is the sample
    index of the chunk's first state), so memory does not grow with samples.
    Every argument is checked at the call, before any state is drawn.  All
    states come from one seeded generator: the output depends only on the
    arguments.  part = (k, n) yields only chunks k, k + n, ...; see
    classify_chunks.
    """
    return classify_chunks(scan_angles(samples, seed), part=part)


def corner_angles():
    """Yield the (alphas, thetas) of the 2^15 min/max parameter corners as
    eight chunks of 4096 states, one per spectrum corner; see corner_scan."""
    alpha_bounds = np.array(range_profile("su4", "volume").bounds[:12])
    alpha_bits = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    theta_bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    alpha_corners = alpha_bounds[np.arange(12), alpha_bits]
    for theta in np.where(theta_bits, SPECTRUM_UPPER, SPECTRUM_LOWER):
        yield alpha_corners, np.broadcast_to(theta, (4096, 3))


def corner_scan(*, part=(0, 1)):
    """Exhaustive classification at all 2^15 min/max parameter corners.

    Returns scan's chunk iterator over eight chunks of 4096 states, part
    selecting among them as in scan.  Sample index t * 4096 + m: bit b of m
    selects the upper endpoint of a_{b+1} (b < 12), bit j of t the upper
    endpoint of t_{j+1}.  The chunks share one array of alpha corners, so
    their 4096 conjugations are composed once.
    """
    return classify_chunks(corner_angles(), part=part)
