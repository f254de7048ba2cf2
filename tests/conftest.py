"""Shared test helpers: an independent dense matrix exponential, random
two-qubit states drawn through the Euler parametrization, scan's angle
chunks with one fixed spectrum, and the chunks of a scan joined into whole
columns."""

from typing import NamedTuple

import numpy as np
import pytest

from su4euler import SPECTRUM_LOWER, SPECTRUM_UPPER, range_profile, rho_full
from su4euler.haar import sample_haar_angles
from su4euler.separability import scan_angles


def expm_taylor(a: np.ndarray, tol: float = 1e-15) -> np.ndarray:
    """Taylor series with scaling and squaring; test oracle only."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / 2.0**squarings
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    k = 1
    while np.linalg.norm(term, ord=np.inf) > tol:
        term = term @ a / k
        result = result + term
        k += 1
        if k > 200:
            raise RuntimeError("Taylor exponential failed to converge")
    for _ in range(squarings):
        result = result @ result
    return result


def random_states(seed: int, n: int):
    """Yield (alphas, thetas, rho) triples from the Haar angle sampler with
    uniform spectrum angles."""
    rng = np.random.default_rng(seed)
    profile = range_profile("su4", "volume")
    lo = np.array(SPECTRUM_LOWER)
    hi = np.array(SPECTRUM_UPPER)
    alphas = sample_haar_angles(rng, profile, size=n)[:, :12]
    thetas = lo + (hi - lo) * rng.random((n, 3))
    for i in range(n):
        yield alphas[i], thetas[i], rho_full(alphas[i], thetas[i])


def fixed_spectrum_angles(samples: int, seed: int, theta):
    """scan_angles(samples, seed) with every state's spectrum angles set to
    theta: (alphas, thetas) chunks of Haar conjugations of one spectrum."""
    return ((alphas, np.broadcast_to(theta, (len(alphas), 3)))
            for alphas, _ in scan_angles(samples, seed))


class ScanColumns(NamedTuple):
    """Every chunk of a scan joined: one row per state, in chunk order."""

    index: np.ndarray
    alphas: np.ndarray
    thetas: np.ndarray
    d: np.ndarray
    min_eig: np.ndarray
    neg_count: np.ndarray
    entangled: np.ndarray
    boundary: np.ndarray


def scan_columns(chunks) -> ScanColumns:
    """Join the (start, alphas, thetas, Classification) chunks of scan or
    corner_scan; index holds each state's sample index, start + row."""
    starts, alphas, thetas, columns = zip(*chunks)
    index = [np.arange(start, start + len(a)) for start, a in zip(starts, alphas)]
    return ScanColumns(*map(np.concatenate, (index, alphas, thetas, *zip(*columns))))


def same_columns(a: ScanColumns, b: ScanColumns) -> bool:
    return all(map(np.array_equal, a, b))


@pytest.fixture
def bell_projector() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho
