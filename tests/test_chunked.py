"""Chunked seeded draws against whole-array reference draws, and their
memory bound.

The Monte Carlo volume and the scan angles are drawn in chunks of at most
haar.CHUNK rows.  The references below draw the seeded stream in one piece,
as the estimator and the scan sampler did before chunking: the MC estimate
must agree to 1e-12 relative (only the summation order differs), and the
scan angles bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from su4euler import group_volume, range_profile, sample_haar_angles
from su4euler.density import SPECTRUM_LOWER, SPECTRUM_UPPER
from su4euler.haar import _DENSITY_FACTORS, _NORMALIZATION, CHUNK
from su4euler.separability import scan, scan_angles


def _stream(seed):
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def whole_array_monte_carlo(group, samples, seed):
    """The estimator with the stream drawn as one samples x axes array."""
    profile = range_profile(group, "volume")
    factors = _DENSITY_FACTORS[group]
    axes = sorted(factors)
    scale = float(_NORMALIZATION[group])
    for lo, hi in profile.bounds:
        scale *= hi - lo
    u = _stream(seed).random((samples, len(axes)))
    vals = np.ones(samples)
    for col, axis in enumerate(axes):
        lo, hi = profile.bounds[axis]
        vals *= factors[axis][0](lo + (hi - lo) * u[:, col])
    mean = float(vals.sum()) / samples
    var = (max(float((vals**2).sum()) / samples - mean**2, 0.0)
           * samples / max(samples - 1, 1))
    return scale * mean, scale * np.sqrt(var / samples)


def whole_stream_scan_angles(samples, seed, spectrum_policy="uniform"):
    """All Haar angles over the covering ranges, then all uniform spectrum
    angles."""
    profile = range_profile("su4", "covering")
    lo, hi = np.array(SPECTRUM_LOWER), np.array(SPECTRUM_UPPER)
    rng = _stream(seed)
    alphas = sample_haar_angles(rng, profile, size=samples)[:, :12]
    if spectrum_policy == "uniform":
        return alphas, lo + (hi - lo) * rng.random((samples, 3))
    return alphas, np.tile(spectrum_policy, (samples, 1))


@pytest.mark.parametrize("samples", [1000, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("group", ["su2", "su3", "su4"])
def test_monte_carlo_matches_whole_array_estimator(group, seed, samples):
    result = group_volume(group, "monte_carlo", samples, seed=seed)
    estimate, standard_error = whole_array_monte_carlo(group, samples, seed)
    assert result.estimate == pytest.approx(estimate, rel=1e-12, abs=0.0)
    assert result.standard_error == pytest.approx(standard_error, rel=1e-12,
                                                  abs=0.0)


DRAW_CASES = [
    (1, 10000, {}),
    (7, 10000, {}),
    (3, 4097, {}),
    (2, 333, {}),
    (5, 1, {}),
    (23, 5000, {"spectrum_policy": (1.0, 1.2, 1.4)}),
]


@pytest.mark.parametrize("seed,samples,options", DRAW_CASES)
def test_scan_angle_chunks_equal_whole_stream_draw(seed, samples, options):
    chunks = list(scan_angles(samples, seed=seed, **options))
    sizes = [len(a) for a, _ in chunks]
    assert sizes[:-1] == [CHUNK] * (len(chunks) - 1) and 0 < sizes[-1] <= CHUNK
    assert all(len(t) == len(a) for a, t in chunks)
    expected_alphas, expected_thetas = whole_stream_scan_angles(
        samples, seed, **options)
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
        lambda: group_volume("su4", "monte_carlo", 10**6))
    assert peak < 2 * 2**20


def test_scan_angles_memory_does_not_grow_with_samples():
    def consume():
        for _ in scan_angles(10**5):
            pass

    assert _peak_traced_bytes(consume) < 4 * 2**20


def test_scan_memory_does_not_grow_with_samples():
    # A list of per-state records peaks at ~11 MiB for 10^4 states and
    # ~42 MiB for 5 * 10^4; the chunks stay flat.
    def consume(samples):
        return lambda: sum(len(a) for _, a, _, _ in scan(samples, seed=1))

    small = _peak_traced_bytes(consume(10**4))
    large = _peak_traced_bytes(consume(5 * 10**4))
    assert large < 10 * 2**20
    assert abs(large - small) < 2**20
