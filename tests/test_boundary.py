"""Validation at the boundary: caller matrices are checked, states built
from angles are valid by construction and skip the check."""

import itertools

import numpy as np
import pytest

from su4euler import (
    SPECTRUM_LOWER,
    SPECTRUM_UPPER,
    ValidationError,
    classify,
    corner_scan,
    is_entangled,
    rho_full,
    scan,
    separability,
    validate_density_matrix,
)
from su4euler.separability import classify_chunks, corner_angles, scan_angles

from conftest import fixed_spectrum_angles, run_cli

SPECTRUM_EDGES = list(itertools.product(*zip(SPECTRUM_LOWER, SPECTRUM_UPPER)))


def listed(chunks):
    return [(start, a.tolist(), t.tolist(), [col.tolist() for col in c])
            for start, a, t, c in chunks]


def run_angle_paths():
    """Outputs of every route that classifies states built from angles."""
    records = listed(scan(4100, seed=3))
    corners = listed(corner_scan())
    chunks = listed(classify_chunks(scan_angles(300, seed=5)))
    proc = run_cli("scan", "--samples", "300", "--seed", "2", "--format", "json")
    assert proc.returncode == 0
    return records, corners, chunks, proc.stdout


def test_angle_built_states_skip_validation(monkeypatch):
    expected = run_angle_paths()
    calls = []

    def refuse(rho, *args, **kwargs):
        calls.append(np.shape(rho))
        raise ValidationError("refused by the test")

    monkeypatch.setattr(separability, "validate_density_matrix", refuse)
    assert run_angle_paths() == expected
    assert calls == []

    rho = np.eye(4, dtype=complex) / 4.0
    with pytest.raises(ValidationError, match="refused by the test"):
        classify(rho)
    with pytest.raises(ValidationError, match="refused by the test"):
        is_entangled(rho)
    assert calls == [(4, 4), (4, 4)]


def assert_valid(chunks):
    for alphas, thetas in chunks:
        validate_density_matrix(rho_full(alphas, thetas))


def test_corner_states_pass_validation():
    assert_valid(corner_angles())


def test_haar_states_pass_validation():
    # 5000 states span the 4096-state chunk boundary.
    assert_valid(scan_angles(5000, seed=11))


@pytest.mark.parametrize("theta", SPECTRUM_EDGES + [(1.0, 1.1, 1.2)])
def test_fixed_spectrum_states_pass_validation(theta):
    assert_valid(fixed_spectrum_angles(500, 12, theta))
