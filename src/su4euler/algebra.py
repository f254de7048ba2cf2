"""Gell-Mann basis of su(4).

Provides the 15 Hermitian traceless generators with the standard
normalization Tr[lam_i lam_j] = 2 delta_ij, the antisymmetric structure
constants f_ijk, matrix commutators, closed-form single-generator
exponentials, and the K/P closure check underlying the group's Euler
factorization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError

N_GENERATORS = 15

# Off-diagonal generators touch exactly one row/column pair (0-based).
_SYMMETRIC_PAIRS = {1: (0, 1), 4: (0, 2), 6: (1, 2), 9: (0, 3), 11: (1, 3), 13: (2, 3)}
_ANTISYMMETRIC_PAIRS = {2: (0, 1), 5: (0, 2), 7: (1, 2), 10: (0, 3), 12: (1, 3), 14: (2, 3)}
_DIAGONALS = {
    3: np.array([1.0, -1.0, 0.0, 0.0]),
    8: np.array([1.0, 1.0, -2.0, 0.0]) / np.sqrt(3.0),
    15: np.array([1.0, 1.0, 1.0, -3.0]) / np.sqrt(6.0),
}

# Euler-factorization split: K generates the U(3) subgroup, P the coset part.
K_INDICES = (1, 2, 3, 4, 5, 6, 7, 8, 15)
P_INDICES = (9, 10, 11, 12, 13, 14)


@dataclass(frozen=True)
class GeneratorClass:
    """Shape of a generator: 'diagonal' or 'embedded-rotation', plus the
    0-based rows/columns it touches."""

    kind: str
    support: tuple[int, ...]


def _build_generators() -> np.ndarray:
    lam = np.zeros((N_GENERATORS, 4, 4), dtype=complex)
    for idx, (a, b) in _SYMMETRIC_PAIRS.items():
        lam[idx - 1, a, b] = 1.0
        lam[idx - 1, b, a] = 1.0
    for idx, (a, b) in _ANTISYMMETRIC_PAIRS.items():
        lam[idx - 1, a, b] = -1.0j
        lam[idx - 1, b, a] = 1.0j
    for idx, diag in _DIAGONALS.items():
        lam[idx - 1] = np.diag(diag.astype(complex))
    lam.setflags(write=False)
    return lam


_LAMBDA = _build_generators()


def _check_index(index: int) -> None:
    if not (1 <= index <= N_GENERATORS):
        raise ValueError(f"generator index out of range 1..{N_GENERATORS}: {index}")


def gell_mann(index: int) -> np.ndarray:
    """Return generator lam_index (1..15) as a fresh 4x4 complex array."""
    _check_index(index)
    return _LAMBDA[index - 1].copy()


def gell_mann_stack() -> np.ndarray:
    """Read-only (15, 4, 4) stack of all generators, lam_1 at slot 0."""
    return _LAMBDA


def generator_class(index: int) -> GeneratorClass:
    """Classify a generator for closed-form exponentiation."""
    _check_index(index)
    if index in _DIAGONALS:
        support = tuple(np.nonzero(_DIAGONALS[index])[0])
        return GeneratorClass("diagonal", support)
    pair = _SYMMETRIC_PAIRS.get(index) or _ANTISYMMETRIC_PAIRS[index]
    return GeneratorClass("embedded-rotation", pair)


def pairing(i: int, j: int) -> float:
    """Tr[lam_i lam_j]; equals 2 delta_ij under this normalization."""
    _check_index(i)
    _check_index(j)
    return float(np.trace(_LAMBDA[i - 1] @ _LAMBDA[j - 1]).real)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ab - ba."""
    return a @ b - b @ a


def _build_structure_constants() -> np.ndarray:
    """f_ijk = (1/4i) Tr[[lam_i, lam_j] lam_k], tabulated once.

    The trace is real for Hermitian generators; any imaginary residue is a
    numerical artifact and must stay below 1e-12.
    """
    prod = np.einsum("iab,jbc->ijac", _LAMBDA, _LAMBDA)
    comm = prod - prod.transpose(1, 0, 2, 3)
    f = np.einsum("ijab,kba->ijk", comm, _LAMBDA) / 4.0j
    residue = np.abs(f.imag).max()
    if residue > 1e-12:
        raise ConsistencyError(
            f"structure constants carry imaginary residue {residue:.3e} > 1e-12"
        )
    table = f.real.copy()
    table.setflags(write=False)
    return table


_F = _build_structure_constants()


def structure_constant(i: int, j: int, k: int) -> float:
    """Structure constant f_ijk (1-based indices), from the precomputed table."""
    _check_index(i)
    _check_index(j)
    _check_index(k)
    return float(_F[i - 1, j - 1, k - 1])


def structure_constants() -> np.ndarray:
    """Read-only (15, 15, 15) table with f[i-1, j-1, k-1] = f_ijk."""
    return _F


_DIAG = np.arange(4)


def exp_generator(index: int, angle) -> np.ndarray:
    """exp(i * lam_index * angle) in closed form; an angle ndarray of shape
    (...) gives a (..., 4, 4) stack.

    Diagonal generators exponentiate entrywise.  Off-diagonal generators act
    as a 2x2 block on their support: a symmetric generator gives
    [[cos, i sin], [i sin, cos]], an antisymmetric one the real rotation
    [[cos, sin], [-sin, cos]].  Exact up to rounding, so safe in inner loops.
    Both branches build every entry with the same operations, so each
    stacked matrix equals the scalar result bit for bit.
    """
    _check_index(index)
    if getattr(angle, "ndim", 0):
        angle = np.asarray(angle, dtype=float)
        if not np.isfinite(angle).all():
            raise ValueError("angles must be finite")
        u = np.zeros(angle.shape + (4, 4), dtype=complex)
        if index in _DIAGONALS:
            u[..., _DIAG, _DIAG] = np.exp(1j * _DIAGONALS[index] * angle[..., None])
            return u
        u[..., _DIAG, _DIAG] = 1.0
        # entries[i, j] is the stack of u[..., i, j].
        entries = np.moveaxis(u, (-2, -1), (0, 1))
    else:
        # Scalar branch, kept apart from the stack construction: per-state
        # callers (one-form rows, single states) make tens of calls per
        # state, and the stack form costs about twice as much per matrix.
        if not np.isfinite(angle):
            raise ValueError(f"angle must be finite, got {angle!r}")
        if index in _DIAGONALS:
            return np.diag(np.exp(1j * _DIAGONALS[index] * angle))
        u = entries = np.eye(4, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    if index in _SYMMETRIC_PAIRS:
        a, b = _SYMMETRIC_PAIRS[index]
        entries[a, a] = entries[b, b] = c
        entries[a, b] = entries[b, a] = 1j * s
    else:
        a, b = _ANTISYMMETRIC_PAIRS[index]
        entries[a, a] = entries[b, b] = c
        entries[a, b] = s
        entries[b, a] = -s
    return u


@dataclass(frozen=True)
class CartanClosureReport:
    """Outcome of the K/P commutator closure check.

    pair_ok maps each checked ordered pair (i, j) to True/False; violations
    lists (i, j, k, f_ijk) entries that land outside the allowed span.
    """

    kk_ok: bool
    pp_ok: bool
    kp_ok: bool
    pair_ok: dict
    violations: list

    @property
    def passed(self) -> bool:
        return self.kk_ok and self.pp_ok and self.kp_ok


def cartan_closure_check(tol: float = 1e-13) -> CartanClosureReport:
    """Verify [K,K] in span K, [P,P] in span K, [K,P] in span P.

    Uses the structure-constant table: the commutator [lam_i, lam_j] has a
    component on lam_k iff f_ijk != 0.
    """
    k_set = set(K_INDICES)
    p_set = set(P_INDICES)
    pair_ok: dict = {}
    violations: list = []

    def check_sector(rows, cols, forbidden):
        ok = True
        for i in rows:
            for j in cols:
                good = True
                for k in forbidden:
                    f = _F[i - 1, j - 1, k - 1]
                    if abs(f) > tol:
                        violations.append((i, j, k, float(f)))
                        good = False
                pair_ok[(i, j)] = good
                ok = ok and good
        return ok

    kk_ok = check_sector(K_INDICES, K_INDICES, p_set)
    pp_ok = check_sector(P_INDICES, P_INDICES, p_set)
    kp_ok = check_sector(K_INDICES, P_INDICES, k_set)
    return CartanClosureReport(kk_ok, pp_ok, kp_ok, pair_ok, violations)
