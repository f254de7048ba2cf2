"""Two-qubit density matrices from spectrum angles and Euler conjugation.

The diagonal seed is

    rho_d = diag(w^2 x^2 y^2, (1-w^2) x^2 y^2, (1-x^2) y^2, 1-y^2)

with w^2 = sin^2(t1), x^2 = sin^2(t2), y^2 = sin^2(t3); its trace
telescopes to 1 for any angles.  A general state is V rho_d V^dagger where
V is the truncated 12-factor Euler product: the trailing l3/l8/l15 factors
commute with the diagonal and drop out.  Each layer is one array expression
over stacked angles; conjugation scales V's columns instead of building rho_d.
"""

from typing import NamedTuple

import numpy as np

from .algebra import gell_mann
from .euler import SU4_GENERATOR_SEQUENCE, compose

CONJUGATION_SEQUENCE = SU4_GENERATOR_SEQUENCE[:12]

# Spectrum-angle ranges whose image is the ordered eigenvalue simplex.
SPECTRUM_LOWER = (np.pi / 4.0, np.arccos(1.0 / np.sqrt(3.0)), np.pi / 3.0)
SPECTRUM_UPPER = (np.pi / 2.0, np.pi / 2.0, np.pi / 2.0)


class BlochCoefficients(NamedTuple):
    """Diagonal-basis expansion rho_d = w0 I + w3 l3 + w8 l8 + w15 l15."""

    w0: float
    w3: float
    w8: float
    w15: float

    def matrix(self) -> np.ndarray:
        return (self.w0 * np.eye(4, dtype=complex)
                + self.w3 * gell_mann(3)
                + self.w8 * gell_mann(8)
                + self.w15 * gell_mann(15))


def _sin_squared(theta) -> np.ndarray:
    """(w2, x2, y2) = sin^2 of (..., 3) spectrum angles, elementwise.

    float_power squares through the C library pow(), as Python's t**2 does;
    numpy's np.power(s, 2) and s*s differ from pow() in the last bit on some
    inputs and would move d and the audit eigenvalues with them.  Raises
    ValueError naming the first state with a non-finite angle.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (3,):
        raise ValueError(f"expected 3 spectrum angles, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        rows = theta.reshape(-1, 3)
        bad = rows[~np.isfinite(rows).all(axis=1)][0]
        raise ValueError(f"spectrum angles must be finite, got {tuple(bad.tolist())}")
    return np.float_power(np.sin(theta), 2)


def spectrum_diagonal(theta) -> np.ndarray:
    """Eigenvalue 4-vector (w2 x2 y2, (1-w2) x2 y2, (1-x2) y2, 1-y2), rounded
    as on Python floats; spectrum angles (..., 3) give (..., 4)."""
    w2, x2, y2 = np.moveaxis(_sin_squared(theta), -1, 0)
    return np.stack([w2 * x2 * y2, (1.0 - w2) * x2 * y2, (1.0 - x2) * y2, 1.0 - y2], -1)


def rho_diagonal(theta) -> np.ndarray:
    """Diagonal density matrix for spectrum angles (t1, t2, t3); angles
    (..., 3) give a (..., 4, 4) stack."""
    return spectrum_diagonal(theta)[..., None] * np.eye(4, dtype=complex)


def bloch_coefficients(theta) -> BlochCoefficients:
    """Closed-form expansion coefficients of one rho_d over {I, l3, l8, l15}."""
    squares = _sin_squared(theta)
    if squares.size != 3:
        raise ValueError(f"bloch_coefficients takes one state, got shape {squares.shape}")
    w2, x2, y2 = squares.ravel().tolist()
    return BlochCoefficients(
        w0=0.25,
        w3=0.5 * (-1.0 + 2.0 * w2) * x2 * y2,
        w8=(-2.0 + 3.0 * x2) * y2 / (2.0 * np.sqrt(3.0)),
        w15=(-3.0 + 4.0 * y2) / (2.0 * np.sqrt(6.0)),
    )


def conjugate(v: np.ndarray, theta) -> np.ndarray:
    """V rho_d(theta) V^dagger, as (V scaled by the spectrum per column)
    V^dagger; unitaries (..., 4, 4) and spectrum angles (..., 3) give a stack
    equal, state by state, to the unstacked call.  The off-diagonal zeros of
    rho_d add only exact zeros to V rho_d, so skipping them moves no bit,
    signed zeros included."""
    v = np.asarray(v, dtype=complex)
    return (v * spectrum_diagonal(theta)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def rho_full(alphas, theta) -> np.ndarray:
    """General density matrix V rho_d V^dagger from the 12 conjugation
    angles a1..a12 and the spectrum angles; angles (..., 12) and (..., 3)
    give a (..., 4, 4) stack."""
    return conjugate(compose(CONJUGATION_SEQUENCE, alphas), theta)
