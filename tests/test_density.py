"""Diagonal seed, Bloch decomposition, conjugated density matrices."""

import math
import re
import warnings

import numpy as np
import pytest

from su4euler import (
    SPECTRUM_LOWER,
    SPECTRUM_UPPER,
    bloch_coefficients,
    compose_su4,
    rho_diagonal,
    rho_full,
    spectrum_diagonal,
)

LOWER_CORNER = SPECTRUM_LOWER
UPPER_CORNER = SPECTRUM_UPPER


def random_thetas(rng, n):
    lo = np.array(SPECTRUM_LOWER)
    hi = np.array(SPECTRUM_UPPER)
    return lo + (hi - lo) * rng.random((n, 3))


def test_rho_diagonal_pure_state():
    assert np.abs(rho_diagonal(UPPER_CORNER) - np.diag([1, 0, 0, 0])).max() < 1e-15


def test_rho_diagonal_maximally_mixed():
    assert np.abs(rho_diagonal(LOWER_CORNER) - np.eye(4) / 4).max() < 1e-15


def test_rho_diagonal_unit_trace_any_angles():
    rng = np.random.default_rng(8)
    for _ in range(200):
        theta = rng.uniform(-np.pi, np.pi, 3)
        assert abs(np.trace(rho_diagonal(theta)) - 1.0) <= 1e-15


def test_spectrum_is_probability_vector_inside_profile():
    rng = np.random.default_rng(9)
    for theta in random_thetas(rng, 500):
        spec = spectrum_diagonal(theta)
        assert (spec >= 0.0).all()
        assert (spec <= 1.0).all()
        assert abs(spec.sum() - 1.0) <= 1e-15
    assert np.abs(spectrum_diagonal(LOWER_CORNER) - 0.25).max() < 1e-15
    assert np.abs(spectrum_diagonal(UPPER_CORNER) - [1, 0, 0, 0]).max() < 1e-15


def test_bloch_maximally_mixed():
    c = bloch_coefficients(LOWER_CORNER)
    assert c.w0 == 0.25
    assert max(abs(c.w3), abs(c.w8), abs(c.w15)) < 1e-15


def test_bloch_pure_state_values():
    c = bloch_coefficients(UPPER_CORNER)
    assert abs(c.w0 - 0.25) < 1e-15
    assert abs(c.w3 - 0.5) < 1e-15
    assert abs(c.w8 - 1.0 / (2.0 * np.sqrt(3.0))) < 1e-15
    assert abs(c.w15 - 1.0 / (2.0 * np.sqrt(6.0))) < 1e-15


def test_bloch_reconstruction_identity():
    rng = np.random.default_rng(10)
    for theta in random_thetas(rng, 100):
        c = bloch_coefficients(theta)
        assert np.abs(c.matrix() - rho_diagonal(theta)).max() <= 1e-14


def test_bloch_matches_trace_extraction():
    from su4euler import gell_mann
    rng = np.random.default_rng(11)
    for theta in random_thetas(rng, 20):
        c = bloch_coefficients(theta)
        rd = rho_diagonal(theta)
        for j, w in ((3, c.w3), (8, c.w8), (15, c.w15)):
            assert abs(np.trace(rd @ gell_mann(j)).real / 2.0 - w) < 1e-14


def test_rho_full_identity_conjugation():
    theta = (0.9, 1.0, 1.2)
    assert np.abs(rho_full(np.zeros(12), theta) - rho_diagonal(theta)).max() < 1e-16


def test_rho_full_is_valid_density_matrix():
    rng = np.random.default_rng(12)
    for _ in range(100):
        rho = rho_full(rng.uniform(0, np.pi, 12), random_thetas(rng, 1)[0])
        assert np.abs(rho - rho.conj().T).max() <= 1e-13
        assert abs(np.trace(rho) - 1.0) <= 1e-13
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_rho_full_preserves_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(300):
        theta = random_thetas(rng, 1)[0]
        rho = rho_full(rng.uniform(0, np.pi, 12), theta)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        assert np.abs(eigs - np.sort(spectrum_diagonal(theta))).max() <= 1e-12


def test_commuting_tail_drops_out():
    # Conjugating with the full 15-factor product must agree with the
    # truncated 12-factor form for any tail angles.
    rng = np.random.default_rng(14)
    for _ in range(50):
        alphas = rng.uniform(0, np.pi, 12)
        tail = rng.uniform(0, 2 * np.pi, 3)
        theta = random_thetas(rng, 1)[0]
        u = compose_su4(np.concatenate([alphas, tail]))
        full = u @ rho_diagonal(theta) @ u.conj().T
        assert np.abs(full - rho_full(alphas, theta)).max() <= 1e-13


def test_rho_full_angle_count():
    with pytest.raises(ValueError):
        rho_full(np.zeros(15), LOWER_CORNER)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_spectrum_angle_rejected_without_warning(bad):
    theta = (np.pi / 2, bad, np.pi / 2)
    stack = np.full((5, 3), 1.2)
    stack[3, 2] = bad
    message = "spectrum angles must be finite, got "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message + repr(theta))):
            rho_full(np.zeros(12), theta)
        with pytest.raises(ValueError, match=re.escape(message + repr(theta))):
            bloch_coefficients(theta)
        with pytest.raises(ValueError,
                           match=re.escape(message + repr(tuple(stack[3].tolist())))):
            rho_full(np.zeros((5, 12)), stack)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_bloch_coefficients_reject_stacked_angles(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"bloch_coefficients takes one state, got shape {shape}")):
        bloch_coefficients(np.full(shape, 1.2))


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("build", [
    lambda theta: rho_full(np.zeros(12), theta),
    spectrum_diagonal, rho_diagonal, bloch_coefficients,
], ids=["rho_full", "spectrum_diagonal", "rho_diagonal", "bloch_coefficients"])
def test_wrong_spectrum_angle_count_is_named(build, count):
    theta = [1.0 + 0.1 * k for k in range(count)]
    with pytest.raises(ValueError, match=re.escape(
            f"expected 3 spectrum angles, got shape ({count},)")):
        build(theta)


def test_bloch_coefficients_keep_python_float_rounding():
    for theta in random_thetas(np.random.default_rng(15), 2000).tolist():
        w2, x2, y2 = (math.sin(t) ** 2 for t in theta)
        c = bloch_coefficients(theta)
        assert type(c.w3) is float
        assert c.w3 == 0.5 * (-1.0 + 2.0 * w2) * x2 * y2
        assert c.w8 == (-2.0 + 3.0 * x2) * y2 / (2.0 * np.sqrt(3.0))
        assert c.w15 == (-3.0 + 4.0 * y2) / (2.0 * np.sqrt(6.0))
