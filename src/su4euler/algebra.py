"""Gell-Mann basis of su(4).

Provides the 15 Hermitian traceless generators with the standard
normalization Tr[lam_i lam_j] = 2 delta_ij, the antisymmetric structure
constants f_ijk, and the Euler factors exp(i a lam_g) in closed form, equal
entry for entry in two shapes: _right_multiply (in place, for long stacked
products) and _factor_stack (one chain's factors at once).
"""

import numpy as np

from .errors import _is_integer, _shown

N_GENERATORS = 15

# Off-diagonal generators touch exactly one row/column pair (0-based).
_SYMMETRIC_PAIRS = {1: (0, 1), 4: (0, 2), 6: (1, 2), 9: (0, 3), 11: (1, 3), 13: (2, 3)}
_ANTISYMMETRIC_PAIRS = {2: (0, 1), 5: (0, 2), 7: (1, 2), 10: (0, 3), 12: (1, 3), 14: (2, 3)}
_DIAGONALS = {
    3: np.array([1.0, -1.0, 0.0, 0.0]),
    8: np.array([1.0, 1.0, -2.0, 0.0]) / np.sqrt(3.0),
    15: np.array([1.0, 1.0, 1.0, -3.0]) / np.sqrt(6.0),
}


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
    if not _is_integer(index):
        raise ValueError(f"generator index must be an integer, got {_shown(index)}")
    if not 1 <= index <= N_GENERATORS:
        raise ValueError(f"generator index out of range 1..{N_GENERATORS}: {index}")


def gell_mann(index: int) -> np.ndarray:
    """Return generator lam_index (1..15) as a fresh 4x4 complex array."""
    _check_index(index)
    return _LAMBDA[index - 1].copy()


def gell_mann_stack() -> np.ndarray:
    """Read-only (15, 4, 4) stack of all generators, lam_1 at slot 0."""
    return _LAMBDA


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
