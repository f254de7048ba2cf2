"""Group composition and range profiles."""

import numpy as np
import pytest

from su4euler import (
    SU4_GENERATOR_SEQUENCE,
    analytic_volume,
    compose_su2,
    compose_su3,
    compose_su4,
    group_volume,
    haar_density,
    haar_density_su2,
    haar_density_su3,
    one_form_matrix,
    range_profile,
    rho_full,
)
from su4euler.algebra import exp_generator
from su4euler.density import CONJUGATION_SEQUENCE
from su4euler.euler import compose
from su4euler.haar import sample_haar_angles
from su4euler.separability import corner_angles


def special_unitary_deviation(u):
    return (np.abs(u.conj().T @ u - np.eye(4)).max(),
            abs(np.linalg.det(u) - 1.0))


def test_su4_factor_sequence():
    assert SU4_GENERATOR_SEQUENCE == (3, 2, 3, 5, 3, 10, 3, 2, 3, 5, 3, 2, 3, 8, 15)


def test_compose_su2_identity():
    assert np.abs(compose_su2(0.0, 0.0, 0.0) - np.eye(4)).max() < 1e-16


def test_compose_su2_quarter_rotation():
    u = compose_su2(0.0, np.pi / 2, 0.0)
    expected = np.eye(4, dtype=complex)
    expected[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    assert np.abs(u - expected).max() < 1e-15


def test_compose_su2_diagonal_phases():
    u = compose_su2(np.pi / 2, 0.0, np.pi / 2)
    assert np.abs(u - np.diag([-1.0, -1.0, 1.0, 1.0])).max() < 1e-15


def test_compose_su3_identity():
    assert np.abs(compose_su3(np.zeros(8)) - np.eye(4)).max() < 1e-16


def test_compose_su3_lambda8_phase():
    a14 = 0.83
    u = compose_su3([0, 0, 0, 0, 0, 0, 0, a14])
    expected = np.diag(np.exp(1j * np.array([1, 1, -2, 0]) * a14 / np.sqrt(3)))
    assert np.abs(u - expected).max() < 1e-15


def test_compose_su3_embedding_pattern():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = compose_su3(rng.uniform(0, np.pi, 8))
        assert np.abs(u[3, :3]).max() < 1e-15
        assert np.abs(u[:3, 3]).max() < 1e-15
        assert abs(u[3, 3] - 1.0) < 1e-15
        dev_u, dev_d = special_unitary_deviation(u)
        assert dev_u < 1e-13 and dev_d < 1e-13


def test_compose_su4_identity_and_single_factor():
    assert np.abs(compose_su4(np.zeros(15)) - np.eye(4)).max() < 1e-16
    angles = np.zeros(15)
    angles[0] = np.pi
    assert np.abs(compose_su4(angles) - np.diag([-1, -1, 1, 1])).max() < 1e-15


def test_compose_su4_special_unitary_random():
    rng = np.random.default_rng(12)
    profile = range_profile("su4", "covering")
    lengths = profile.lengths()
    for _ in range(10_000):
        u = compose_su4(lengths * rng.random(15))
        dev_u, dev_d = special_unitary_deviation(u)
        assert dev_u <= 1e-12
        assert dev_d <= 1e-12


def test_compose_su4_restricts_to_su3():
    rng = np.random.default_rng(3)
    for _ in range(20):
        middle = rng.uniform(0, np.pi, 8)
        full = np.zeros(15)
        full[6:14] = middle
        assert np.abs(compose_su4(full) - compose_su3(middle)).max() < 1e-14


def test_compose_su4_angle_count():
    with pytest.raises(ValueError):
        compose_su4(np.zeros(12))


def test_compose_names_a_generator_index_outside_1_to_15():
    for index in (0, 16, -1):
        with pytest.raises(ValueError, match=rf"^generator index out of range 1..15: {index}$"):
            compose((3, index), [0.1, 0.2])


def test_volume_profile_bounds_exact():
    p4 = range_profile("su4", "volume")
    assert p4.bounds[14][1] == np.pi / np.sqrt(6.0)
    assert p4.bounds[13][1] == np.pi / np.sqrt(3.0)
    assert p4.bounds[0] == (0.0, np.pi)
    assert p4.bounds[1] == (0.0, np.pi / 2.0)
    p3 = range_profile("su3", "volume")
    assert p3.bounds[7][1] == np.pi / np.sqrt(3.0)
    assert p3.dim == 8
    pi, half = np.pi, np.pi / 2
    assert p3.bounds == tuple((0.0, hi) for hi in (
        pi, half, pi, half, pi, half, pi, pi / np.sqrt(3.0)))
    assert range_profile("su2", "volume").bounds == ((0.0, pi), (0.0, half), (0.0, pi))


def test_covering_profile_bounds_exact():
    p4 = range_profile("su4", "covering")
    assert p4.bounds[14][1] == 2.0 * np.sqrt(2.0 / 3.0) * np.pi
    assert p4.bounds[13][1] == np.sqrt(3.0) * np.pi
    assert p4.bounds[2] == (0.0, 2.0 * np.pi)
    p2 = range_profile("su2", "covering")
    assert p2.bounds[2] == (0.0, 2.0 * np.pi)
    pi, half = np.pi, np.pi / 2
    assert p2.bounds == ((0.0, pi), (0.0, half), (0.0, 2 * pi))
    assert range_profile("su3", "covering").bounds == tuple((0.0, hi) for hi in (
        pi, half, 2 * pi, half, pi, half, 2 * pi, np.sqrt(3.0) * pi))


def test_covering_to_volume_length_ratios():
    vol = range_profile("su4", "volume").lengths()
    cov = range_profile("su4", "covering").lengths()
    expected = np.array([1, 1, 2, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 3, 4], dtype=float)
    assert np.abs(cov / vol - expected).max() < 1e-14


def test_profile_bounds_ordered():
    for group in ("su2", "su3", "su4"):
        for kind in ("volume", "covering"):
            profile = range_profile(group, kind)
            assert all(lo <= hi for lo, hi in profile.bounds)
            assert all(lo == 0.0 for lo, _ in profile.bounds)


def test_profile_validation():
    with pytest.raises(ValueError):
        range_profile("su5", "volume")
    with pytest.raises(ValueError):
        range_profile("su4", "haar")
    for call in (lambda: range_profile(4, "volume"), lambda: range_profile("su4", None),
                 lambda: analytic_volume(None), lambda: group_volume(None)):
        with pytest.raises(ValueError, match="^unknown "):
            call()


def dense_factor_compose(generators, angles):
    """The product as dense factor matmuls, u <- u @ exp_generator(g, a)."""
    u = np.eye(4, dtype=complex)
    for k, g in enumerate(generators):
        u = u @ exp_generator(g, angles[..., k])
    return u


@pytest.mark.parametrize("kind", ["volume", "covering"])
def test_compose_matches_dense_factor_product(kind):
    angles = sample_haar_angles(np.random.default_rng(40), range_profile("su4", kind),
                                size=5000)
    expected = dense_factor_compose(SU4_GENERATOR_SEQUENCE, angles)
    assert np.abs(compose(SU4_GENERATOR_SEQUENCE, angles) - expected).max() <= 1e-15


def test_compose_matches_dense_factor_product_on_alpha_corners():
    alphas, _ = next(corner_angles())
    assert alphas.shape == (4096, 12)
    expected = dense_factor_compose(CONJUGATION_SEQUENCE, alphas)
    assert np.abs(compose(CONJUGATION_SEQUENCE, alphas) - expected).max() <= 1e-15


_NONFINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", _NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build,name", [
    (lambda a: compose(SU4_GENERATOR_SEQUENCE, a[0]), "a5"),
    (lambda a: compose(SU4_GENERATOR_SEQUENCE, a), "a5"),
    (lambda a: compose_su4(a[0]), "a5"),
    (lambda a: rho_full(a[0, :12], (1.0, 1.1, 1.2)), "a5"),
    # The paper's names: a7..a14 for SU(3), mu, nu, xi for SU(2).
    (lambda a: compose_su3(a[0, :8]), "a11"),
    (lambda a: compose_su3(a[2, 1:9]), "a7"),
    (lambda a: compose_su3(a[:, :8]), "a11"),
    (lambda a: compose_su2(*a[2, :3]), "nu"),
    (lambda a: compose_su2(*a[2, 1:4]), "mu"),
], ids=["compose-row", "compose-stack", "compose_su4", "rho_full",
        "compose_su3", "compose_su3-first", "compose_su3-stack", "compose_su2",
        "compose_su2-first"])
def test_compose_names_first_nonfinite_angle(build, name, bad):
    angles = np.full((3, 15), 0.5)
    angles[0, 4] = angles[2, 1] = bad
    with pytest.raises(ValueError,
                       match=rf"^angles must be finite, got {name} = {bad}$"):
        build(angles)


@pytest.mark.parametrize("bad", _NONFINITE, ids=["nan", "inf", "-inf"])
def test_one_form_and_exp_generator_reject_nonfinite_angle(bad):
    angles = np.full(15, 0.5)
    angles[7] = bad
    with pytest.raises(ValueError, match="angles must be finite"):
        one_form_matrix(angles)
    # a8 sits on a nontrivial axis of each density: a7..a14 is the SU(3)
    # vector and a7, a8, a9 the SU(2) one, with a8 as its nu.
    for density, vector in [(haar_density, angles), (haar_density_su3, angles[6:14]),
                            (haar_density_su2, angles[6:9])]:
        with pytest.raises(ValueError, match="^angles must be finite$"):
            density(vector)
    for angle in (bad, angles):
        with pytest.raises(ValueError, match=rf"^angle must be finite, got {bad}$"):
            exp_generator(5, angle)
