"""Chunked seeded draws against whole-array reference draws, and their
memory bound.

The Monte Carlo volume and the scan angles are drawn in chunks of at most
haar.CHUNK rows.  The references below draw each RNG sub-stream in one
piece, as the estimator and the scan sampler did before chunking: the MC
estimate must agree to 1e-12 relative (only the summation order differs),
and the scan angles bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from su4euler import group_volume, range_profile, sample_haar_angles
from su4euler.density import SPECTRUM_LOWER, SPECTRUM_UPPER
from su4euler.haar import _DENSITY_FACTORS, _NORMALIZATION, CHUNK
from su4euler.separability import scan_angles


def _streams(seed, workers, samples):
    workers = min(workers, samples)
    children = np.random.SeedSequence(seed).spawn(workers)
    return [(np.random.default_rng(child),
             samples // workers + (1 if w < samples % workers else 0))
            for w, child in enumerate(children)]


def whole_array_monte_carlo(group, samples, seed, workers):
    """The estimator with every sub-stream drawn as one samples x axes array."""
    profile = range_profile(group, "volume")
    factors = _DENSITY_FACTORS[group]
    axes = sorted(factors)
    scale = float(_NORMALIZATION[group])
    for lo, hi in profile.bounds:
        scale *= hi - lo
    total = total_sq = 0.0
    for rng, n_w in _streams(seed, workers, samples):
        u = rng.random((n_w, len(axes)))
        vals = np.ones(n_w)
        for col, axis in enumerate(axes):
            lo, hi = profile.bounds[axis]
            vals *= factors[axis][0](lo + (hi - lo) * u[:, col])
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0) * samples / max(samples - 1, 1)
    return scale * mean, scale * np.sqrt(var / samples)


def whole_stream_scan_angles(samples, seed, workers, angle_profile="volume",
                             spectrum_policy="uniform"):
    """Per sub-stream: all Haar angles, then all uniform spectrum angles."""
    profile = range_profile("su4", angle_profile)
    lo, hi = np.array(SPECTRUM_LOWER), np.array(SPECTRUM_UPPER)
    alphas, thetas = [], []
    for rng, n_w in _streams(seed, workers, samples):
        alphas.append(sample_haar_angles(rng, profile, size=n_w)[:, :12])
        if spectrum_policy == "uniform":
            thetas.append(lo + (hi - lo) * rng.random((n_w, 3)))
        else:
            thetas.append(np.tile(spectrum_policy, (n_w, 1)))
    return np.concatenate(alphas), np.concatenate(thetas)


@pytest.mark.parametrize("samples", [1000, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("group", ["su2", "su3", "su4"])
def test_monte_carlo_matches_whole_array_estimator(group, workers, samples):
    result = group_volume(group, "monte_carlo", samples, seed=samples + 1,
                          workers=workers)
    estimate, standard_error = whole_array_monte_carlo(group, samples,
                                                       samples + 1, workers)
    assert result.estimate == pytest.approx(estimate, rel=1e-12, abs=0.0)
    assert result.standard_error == pytest.approx(standard_error, rel=1e-12,
                                                  abs=0.0)


DRAW_CASES = [
    (1, 1, 10000, {}),
    (7, 3, 10000, {}),
    (3, 3, 4097, {}),
    (2, 50, 333, {}),
    (2, 1, 333, {"angle_profile": "covering"}),
    (23, 3, 5000, {"spectrum_policy": (1.0, 1.2, 1.4)}),
]


@pytest.mark.parametrize("seed,workers,samples,options", DRAW_CASES)
def test_scan_angle_chunks_equal_whole_stream_draw(seed, workers, samples,
                                                   options):
    chunks = list(scan_angles(samples, seed=seed, workers=workers, **options))
    sizes = [len(a) for a, _ in chunks]
    assert sizes[:-1] == [CHUNK] * (len(chunks) - 1) and 0 < sizes[-1] <= CHUNK
    assert all(len(t) == len(a) for a, t in chunks)
    expected_alphas, expected_thetas = whole_stream_scan_angles(
        samples, seed, workers, **options)
    assert np.array_equal(np.concatenate([a for a, _ in chunks]),
                          expected_alphas)
    assert np.array_equal(np.concatenate([t for _, t in chunks]),
                          expected_thetas)


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_does_not_grow_with_samples():
    peak = _peak_traced_bytes(
        lambda: group_volume("su4", "monte_carlo", 10**6, workers=3))
    assert peak < 2 * 2**20


def test_scan_angles_memory_does_not_grow_with_samples():
    def consume():
        for _ in scan_angles(10**5, workers=3):
            pass

    assert _peak_traced_bytes(consume) < 4 * 2**20
