"""Gell-Mann basis of su(4).

Provides the 15 Hermitian traceless generators with the standard
normalization Tr[lam_i lam_j] = 2 delta_ij, the antisymmetric structure
constants f_ijk, matrix commutators, the K/P closure check underlying the
group's Euler factorization, and the Euler factors exp(i a lam_g) in closed
form, equal entry for entry in two shapes: _right_multiply (in place, for
long stacked products) and _factor_stack (one chain's factors at once).
"""

from dataclasses import dataclass

import numpy as np

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

    The trace is real for Hermitian generators, so the table keeps the real
    part; the tests bound the imaginary residue.
    """
    prod = np.einsum("iab,jbc->ijac", _LAMBDA, _LAMBDA)
    comm = prod - prod.transpose(1, 0, 2, 3)
    f = np.einsum("ijab,kba->ijk", comm, _LAMBDA) / 4.0j
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


# i lam on each diagonal generator's support, a leading run of columns.
_PHASES = {idx: 1j * d[:np.count_nonzero(d)] for idx, d in _DIAGONALS.items()}


def _right_multiply(u: np.ndarray, index: int, angle) -> np.ndarray:
    """u <- u exp(i angle lam_index) in place on a (..., 4, 4) complex stack
    with angles (...); returns u.  A diagonal generator scales its support
    columns by its phases; an off-diagonal one mixes its two columns as the
    block [[c, i s], [i s, c]] (symmetric) or [[c, s], [-s, c]] does.  The
    work is elementwise per angle: a stack equals its rows, bit for bit."""
    if index in _PHASES:
        phases = _PHASES[index]
        u[..., :phases.size] *= np.exp(angle[..., None, None] * phases)
        return u
    a, b = _SYMMETRIC_PAIRS.get(index) or _ANTISYMMETRIC_PAIRS[index]
    c, s = np.cos(angle)[..., None], np.sin(angle)[..., None]
    if index in _SYMMETRIC_PAIRS:
        upper = lower = 1j * s
    else:
        upper, lower = s, -s
    col_a, col_b = u[..., a], u[..., b]
    mixed_a = c * col_a + lower * col_b
    col_b[...] = upper * col_a + c * col_b
    col_a[...] = mixed_a
    return u


def _factor_tables(generators):
    """Constant tables (iD, I - P, P, R) of a chain's factor stack: iD[k] is
    the diagonal of i lam_g(k), R[k] its off-diagonal part (one of the two is
    0), and P[k] the projector onto the columns R[k] touches."""
    lam = _LAMBDA[np.subtract(generators, 1)]
    i_d = 1j * np.diagonal(lam, axis1=1, axis2=2)
    rot = 1j * lam - i_d[..., None] * np.eye(4)
    proj = np.eye(4) * (rot != 0).any(axis=-1)[:, None, :]
    return i_d, np.eye(4) - proj, proj, rot


def _factor_stack(tables, angles) -> np.ndarray:
    """Factors exp(i a_k lam_g(k)) as exp(a iD) (I - P) + cos(a) P + sin(a) R,
    each entry exactly _right_multiply's c, +-s, +-i s or e^{i a d}."""
    i_d, keep, proj, rot = tables
    a = angles[:, None, None]
    return np.exp(a[:, 0] * i_d)[..., None] * keep + np.cos(a) * proj + np.sin(a) * rot


def exp_generator(index: int, angle) -> np.ndarray:
    """exp(i * lam_index * angle): the identity right-multiplied by the factor
    (_right_multiply).  One body serves scalar and stacked angles, so angles
    of shape (...) give a (..., 4, 4) stack equal, matrix by matrix and bit
    for bit, to the scalar results."""
    _check_index(index)
    angle = np.asarray(angle, dtype=float)
    if not np.isfinite(angle).all():
        raise ValueError(f"angle must be finite, got {angle[~np.isfinite(angle)][0]}")
    u = np.broadcast_to(np.eye(4, dtype=complex), angle.shape + (4, 4)).copy()
    return _right_multiply(u, index, angle)


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
