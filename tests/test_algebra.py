"""Generator basis, structure constants, commutator tables, exponentials."""

import numpy as np
import pytest

from su4euler import (
    SU3_GENERATOR_SEQUENCE,
    SU4_GENERATOR_SEQUENCE,
    exp_generator,
    gell_mann,
    gell_mann_stack,
    structure_constants,
)
from su4euler.algebra import _factor_stack, _factor_tables

from conftest import expm_taylor

SQ3 = np.sqrt(3.0)
ISQ3 = 1.0 / SQ3
R83 = np.sqrt(8.0 / 3.0)

# Euler-factorization split (0-based): K generates the U(3) subgroup.
K = np.array([1, 2, 3, 4, 5, 6, 7, 8, 15]) - 1
P = np.array([9, 10, 11, 12, 13, 14]) - 1

# Commutator tables encoded as [lam_i, lam_j] = i * sum coeff * lam_k for
# i < j (K sector), i < j (P sector), and (k, p) ordered pairs.  Lower
# triangles are the exact negations and are checked both ways.

TABLE_KK = {
    (1, 2): {3: 2.0},
    (1, 3): {2: -2.0},
    (1, 4): {7: 1.0},
    (1, 5): {6: -1.0},
    (1, 6): {5: 1.0},
    (1, 7): {4: -1.0},
    (1, 8): {},
    (1, 15): {},
    (2, 3): {1: 2.0},
    (2, 4): {6: 1.0},
    (2, 5): {7: 1.0},
    (2, 6): {4: -1.0},
    (2, 7): {5: -1.0},
    (2, 8): {},
    (2, 15): {},
    (3, 4): {5: 1.0},
    (3, 5): {4: -1.0},
    (3, 6): {7: -1.0},
    (3, 7): {6: 1.0},
    (3, 8): {},
    (3, 15): {},
    (4, 5): {3: 1.0, 8: SQ3},
    (4, 6): {2: 1.0},
    (4, 7): {1: 1.0},
    (4, 8): {5: -SQ3},
    (4, 15): {},
    (5, 6): {1: -1.0},
    (5, 7): {2: 1.0},
    (5, 8): {4: SQ3},
    (5, 15): {},
    (6, 7): {3: -1.0, 8: SQ3},
    (6, 8): {7: -SQ3},
    (6, 15): {},
    (7, 8): {6: SQ3},
    (7, 15): {},
    (8, 15): {},
}

TABLE_PP = {
    (9, 10): {3: 1.0, 8: ISQ3, 15: 2.0 * np.sqrt(2.0 / 3.0)},
    (9, 11): {2: 1.0},
    (9, 12): {1: 1.0},
    (9, 13): {5: 1.0},
    (9, 14): {4: 1.0},
    (10, 11): {1: -1.0},
    (10, 12): {2: 1.0},
    (10, 13): {4: -1.0},
    (10, 14): {5: 1.0},
    (11, 12): {3: -1.0, 8: ISQ3, 15: 2.0 * np.sqrt(2.0 / 3.0)},
    (11, 13): {7: 1.0},
    (11, 14): {6: 1.0},
    (12, 13): {6: -1.0},
    (12, 14): {7: 1.0},
    (13, 14): {8: -2.0 * ISQ3, 15: 2.0 * np.sqrt(2.0 / 3.0)},
}

# The lam_8 entries against lam_13/lam_14 carry coefficient 2/sqrt(3), as
# forced by the lam_8 normalization and the (13, 14) row above.
TABLE_KP = {
    (1, 9): {12: 1.0},
    (1, 10): {11: -1.0},
    (1, 11): {10: 1.0},
    (1, 12): {9: -1.0},
    (1, 13): {},
    (1, 14): {},
    (2, 9): {11: 1.0},
    (2, 10): {12: 1.0},
    (2, 11): {9: -1.0},
    (2, 12): {10: -1.0},
    (2, 13): {},
    (2, 14): {},
    (3, 9): {10: 1.0},
    (3, 10): {9: -1.0},
    (3, 11): {12: -1.0},
    (3, 12): {11: 1.0},
    (3, 13): {},
    (3, 14): {},
    (4, 9): {14: 1.0},
    (4, 10): {13: -1.0},
    (4, 11): {},
    (4, 12): {},
    (4, 13): {10: 1.0},
    (4, 14): {9: -1.0},
    (5, 9): {13: 1.0},
    (5, 10): {14: 1.0},
    (5, 11): {},
    (5, 12): {},
    (5, 13): {9: -1.0},
    (5, 14): {10: -1.0},
    (6, 9): {},
    (6, 10): {},
    (6, 11): {14: 1.0},
    (6, 12): {13: -1.0},
    (6, 13): {12: 1.0},
    (6, 14): {11: -1.0},
    (7, 9): {},
    (7, 10): {},
    (7, 11): {13: 1.0},
    (7, 12): {14: 1.0},
    (7, 13): {11: -1.0},
    (7, 14): {12: -1.0},
    (8, 9): {10: ISQ3},
    (8, 10): {9: -ISQ3},
    (8, 11): {12: ISQ3},
    (8, 12): {11: -ISQ3},
    (8, 13): {14: -2.0 * ISQ3},
    (8, 14): {13: 2.0 * ISQ3},
    (15, 9): {10: R83},
    (15, 10): {9: -R83},
    (15, 11): {12: R83},
    (15, 12): {11: -R83},
    (15, 13): {14: R83},
    (15, 14): {13: -R83},
}


def table_matrix(entry: dict) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for k, coeff in entry.items():
        out += 1j * coeff * gell_mann(k)
    return out


def commutators() -> np.ndarray:
    """[lam_i, lam_j] at [i-1, j-1], by matrix products."""
    prod = gell_mann_stack()[:, None] @ gell_mann_stack()
    return prod - prod.transpose(1, 0, 2, 3)


def test_gell_mann_lambda1():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(gell_mann(1), expected)


def test_gell_mann_lambda15():
    expected = np.diag([1.0, 1.0, 1.0, -3.0]).astype(complex) / np.sqrt(6.0)
    assert np.abs(gell_mann(15) - expected).max() < 1e-16


def test_gell_mann_hermitian_traceless():
    for i in range(1, 16):
        lam = gell_mann(i)
        assert np.abs(lam - lam.conj().T).max() == 0.0
        assert abs(np.trace(lam)) <= 1e-14


def test_gell_mann_index_validation():
    for index in (0, 16, 1.5, True, "3"):
        with pytest.raises(ValueError, match="generator index"):
            gell_mann(index)
        with pytest.raises(ValueError, match="generator index"):
            exp_generator(index, 0.3)
    assert np.array_equal(gell_mann(np.int64(3)), gell_mann(3))


def test_generator_classification():
    lam = gell_mann_stack()
    off_diagonal = lam * (1 - np.eye(4))
    assert [i + 1 for i in range(15) if not off_diagonal[i].any()] == [3, 8, 15]
    assert np.array_equal(np.nonzero(lam[9]), [[0, 3], [3, 0]])
    assert np.array_equal(np.nonzero(lam[5]), [[1, 2], [2, 1]])


def test_pairing_orthonormality():
    lam = gell_mann_stack()
    gram = np.einsum("iab,jba->ij", lam, lam)
    assert np.abs(gram - 2.0 * np.eye(15)).max() < 1e-14


@pytest.mark.parametrize("table", [TABLE_KK, TABLE_PP, TABLE_KP])
def test_commutator_tables_direct(table):
    comm = commutators()
    for (i, j), entry in table.items():
        expected = table_matrix(entry)
        assert np.abs(comm[i - 1, j - 1] - expected).max() < 1e-13, (i, j)
        assert np.abs(comm[j - 1, i - 1] + expected).max() < 1e-13


@pytest.mark.parametrize("table", [TABLE_KK, TABLE_PP, TABLE_KP])
def test_commutator_tables_from_structure_constants(table):
    # Reconstruction [lam_i, lam_j] = 2i sum_k f_ijk lam_k, table lookups only.
    f = structure_constants()
    lam = gell_mann_stack()
    for (i, j), entry in table.items():
        rebuilt = 2j * np.einsum("k,kab->ab", f[i - 1, j - 1], lam)
        assert np.abs(rebuilt - table_matrix(entry)).max() < 1e-13, (i, j)


def test_structure_constant_examples():
    f = structure_constants()
    assert abs(f[0, 1, 2] - 1.0) < 1e-14
    assert abs(f[0, 8, 11] - 0.5) < 1e-14
    assert not f[range(15), range(15)].any()


def test_structure_constants_antisymmetry():
    f = structure_constants()
    assert np.abs(f + f.transpose(1, 0, 2)).max() < 1e-14
    assert np.abs(f + f.transpose(0, 2, 1)).max() < 1e-14


def test_structure_constants_are_the_real_trace():
    """f_ijk = (1/4i) Tr[[lam_i, lam_j] lam_k] is real for Hermitian
    generators: the imaginary residue of the rebuilt traces stays below
    1e-12, and the table holds their real parts exactly."""
    lam = gell_mann_stack()
    f = np.array([[[np.trace((a @ b - b @ a) @ c) / 4j for c in lam]
                   for b in lam] for a in lam])
    assert np.abs(f.imag).max() <= 1e-12
    assert np.array_equal(structure_constants(), f.real)


def test_reconstruction_matches_commutator_everywhere():
    rebuilt = 2j * np.einsum("ijk,kab->ijab", structure_constants(), gell_mann_stack())
    assert np.abs(rebuilt - commutators()).max() < 1e-13


def test_exp_generator_zero_angle_is_identity():
    for i in range(1, 16):
        assert np.abs(exp_generator(i, 0.0) - np.eye(4)).max() < 1e-16


def test_exp_generator_lambda2_rotation_block():
    nu = 0.7321
    u = exp_generator(2, nu)
    block = np.array([[np.cos(nu), np.sin(nu)], [-np.sin(nu), np.cos(nu)]])
    assert np.abs(u[:2, :2] - block).max() < 1e-15
    assert np.abs(u[2:, 2:] - np.eye(2)).max() == 0.0


def test_exp_generator_lambda3_pi():
    assert np.abs(exp_generator(3, np.pi) - np.diag([-1, -1, 1, 1])).max() < 1e-15


def test_exp_generator_against_series_oracle():
    rng = np.random.default_rng(7)
    for i in range(1, 16):
        for angle in (0.3, -1.9, np.pi / 2, 4.0 * rng.random()):
            closed = exp_generator(i, angle)
            oracle = expm_taylor(1j * gell_mann(i) * angle)
            assert np.abs(closed - oracle).max() < 1e-13, (i, angle)


def test_exp_generator_special_unitary():
    rng = np.random.default_rng(11)
    for _ in range(200):
        i = int(rng.integers(1, 16))
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        u = exp_generator(i, angle)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-14
        assert abs(np.linalg.det(u) - 1.0) <= 1e-13


def test_exp_generator_rejects_nonfinite_angle():
    with pytest.raises(ValueError):
        exp_generator(3, np.inf)
    with pytest.raises(ValueError):
        exp_generator(3, np.nan)


@pytest.mark.parametrize("generators", [SU4_GENERATOR_SEQUENCE, SU3_GENERATOR_SEQUENCE],
                         ids=["su4", "su3"])
def test_factor_stack_equals_exp_generator(generators):
    # Value for value, not to a tolerance: both closed forms put exactly
    # c, +-s, +-i s or e^{i a d} in each entry (only the sign of a zero may
    # differ, and -0.0 == 0.0).  I + (c - 1) P + s R would round c and fail.
    tables = _factor_tables(generators)
    n = len(generators)
    special = [np.zeros(n), np.full(n, np.pi / 2), np.full(n, -np.pi / 2),
               np.full(n, np.pi)]
    random = np.random.default_rng(41).uniform(-2 * np.pi, 2 * np.pi, (200, n))
    for angles in [*special, *random]:
        stack = _factor_stack(tables, angles)
        for k, g in enumerate(generators):
            assert np.array_equal(stack[k], exp_generator(g, angles[k])), (g, angles[k])


def test_cartan_closure_every_pair():
    # [K,K] and [P,P] have no component on P, [K,P] none on K.
    f = structure_constants()
    assert not f[K][:, K][:, :, P].any()
    assert not f[P][:, P][:, :, P].any()
    assert not f[K][:, P][:, :, K].any()


def test_cartan_closure_examples():
    # [lam_4, lam_5] lands on {3, 8}, [lam_13, lam_14] on {8, 15}, both in K;
    # [lam_8, lam_10] lands on {9}, in P.
    f = structure_constants()
    on_45 = {k + 1 for k in np.nonzero(np.abs(f[3, 4]) > 1e-13)[0]}
    assert on_45 == {3, 8}
    on_1314 = {k + 1 for k in np.nonzero(np.abs(f[12, 13]) > 1e-13)[0]}
    assert on_1314 == {8, 15}
    on_810 = {k + 1 for k in np.nonzero(np.abs(f[7, 9]) > 1e-13)[0]}
    assert on_810 == {9}
