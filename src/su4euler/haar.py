"""Haar measure on SU(4) in Euler angles: one-form coefficients, the
closed-form density, group volumes, and Haar sampling.  SU(2) and SU(3) are
the a1..a3 and a7..a14 factors of the SU(4) chain, with its ranges and Haar
factors at those positions.

The density with respect to da1..da15 factorizes into one-dimensional
trigonometric factors in six of the fifteen angles, which makes volume
quadrature a product of 1-D quadratures and Haar sampling a set of
independent inverse-CDF draws.  One generator therefore serves a whole
seeded draw (a Monte Carlo volume, a scan's angles), and its output depends
only on the seed and the sample count.  The Monte Carlo volume's chunks
run on up to two of the CPUs available to the process; the thread count
cannot be set, and the output is the same bytes on any CPU count.

Two range kinds serve two jobs.  The covering ranges parametrize every
group element, and angles drawn over them by sample_haar_angles give Haar
draws on the group.  The volume ranges are an integration domain, the
group volume over the normalization factor (1/192 of SU(4)): quadrature and
Monte Carlo volumes integrate over them, but draws from them are not Haar.
For example, E tr U over volume-range draws of SU(4) is about 0.56 - 0.52i,
where Haar gives 0.
"""

# The annotations stay unevaluated: np.random.Generator would import
# numpy.random at load, which only a draw needs.
from __future__ import annotations

import copy
import os
from typing import NamedTuple

import numpy as np

from .algebra import _LAMBDA, _factor_stack, _factor_tables
from .errors import _is_integer, _shown
from .euler import (
    _CHAINS,
    _GENERATOR_SEQUENCES,
    RangeProfile,
    SU4_GENERATOR_SEQUENCE,
    compose,
    normalize_group,
    range_profile,
)

# Center / subgroup-identification factors restoring the full group volume.
_NORMALIZATION = {"su2": 2, "su3": 12, "su4": 192}

_ANALYTIC_VOLUME = {
    "su2": 2.0 * np.pi**2,
    "su3": np.sqrt(3.0) * np.pi**5,
    "su4": np.sqrt(2.0) * np.pi**9 / 3.0,
}


def _f_sin2(x):
    return np.sin(2.0 * x)


def _f_cos3_sin(x):
    return np.cos(x) ** 3 * np.sin(x)


def _f_cos_sin5(x):
    return np.cos(x) * np.sin(x) ** 5


def _f_cos_sin3(x):
    return np.cos(x) * np.sin(x) ** 3


def _icdf_sin2(u):
    return np.arcsin(np.sqrt(u))


def _icdf_cos3_sin(u):
    return np.arccos((1.0 - u) ** 0.25)


def _icdf_cos_sin5(u):
    return np.arcsin(u ** (1.0 / 6.0))


def _icdf_cos_sin3(u):
    return np.arcsin(u**0.25)


# 0-based SU(4) axis -> (factor, inverse CDF); SU(2) and SU(3) take the
# factors at their SU(4) positions.  The inverse CDFs are derived on [0, pi/2],
# which every nontrivial axis spans in both range kinds (a test checks this).
_SU4_FACTORS = {1: (_f_sin2, _icdf_sin2), 3: (_f_cos3_sin, _icdf_cos3_sin),
                5: (_f_cos_sin5, _icdf_cos_sin5), 7: (_f_sin2, _icdf_sin2),
                9: (_f_cos_sin3, _icdf_cos_sin3), 11: (_f_sin2, _icdf_sin2)}
_DENSITY_FACTORS = {group: {axis - chain.start: _SU4_FACTORS[axis]
                            for axis in range(15)[chain] if axis in _SU4_FACTORS}
                    for group, chain in _CHAINS.items()}


class VolumeResult(NamedTuple):
    estimate: float
    standard_error: float
    method: str
    samples_or_nodes: int
    normalization: int  # center multiplicity: SU(2) 2, SU(3) 12, SU(4) 192


def analytic_volume(group: str) -> float:
    """Closed-form group volume: 2 pi^2, sqrt(3) pi^5, sqrt(2) pi^9 / 3."""
    return _ANALYTIC_VOLUME[normalize_group(group)]


def haar_density(angles) -> np.ndarray | float:
    """Closed-form SU(4) Haar density at a1..a15 (trailing axis may stack).

    Equals cos^3(a4) cos(a6) cos(a10) sin(2 a2) sin(a4) sin^5(a6)
    sin(2 a8) sin^3(a10) sin(2 a12); only the six even angles up to a12
    enter.  SU(2) and SU(3) densities are the products of their groups'
    _DENSITY_FACTORS.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1:] != (15,):
        raise ValueError(f"expected trailing dimension 15, got {angles.shape}")
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    out = np.ones(angles.shape[:-1])
    for axis, (factor, _) in _SU4_FACTORS.items():
        out = out * factor(angles[..., axis])
    return out if out.ndim else float(out)


# Tables of the SU(4) chain: the factor-stack tables of F_2..F_15 (F_1 enters
# no one-form), lam_g(k) stacked, and a (32, 15) basis table: column j is
# lam_{j+1} / 2 as (re, im) pairs.
_FACTORS = _factor_tables(SU4_GENERATOR_SEQUENCE[1:])
_LAMBDA_G = _LAMBDA[np.subtract(SU4_GENERATOR_SEQUENCE, 1)]
_BASIS = 0.5 * _LAMBDA[:15].reshape(15, 16).view(float).T
_EYE = np.eye(4, dtype=complex)[None]


def one_form_matrix(angles) -> np.ndarray:
    """15x15 coefficient matrix c_kj for SU(4); |det| is the Haar density.

    c_kj are the coefficients of the invariant one-forms of the chain
    U = F_1 ... F_15, F_k = exp(i a_k lam_{g(k)}), over lam_1..lam_15.  With
    the suffix products S_k = F_{k+1} ... F_15 (S_15 = I),
        U^dagger dU/da_k = S_k^dagger (i lam_{g(k)}) S_k = i sum_j c_kj lam_j,
    so c_kj = Tr[lam_j X_k] / 2 with X_k = S_k^dagger lam_{g(k)} S_k, real up
    to rounding since X_k is Hermitian; the real part is kept.  No loop runs
    over the factors: a doubling scan turns the closed-form stack F_2..F_15, I
    into S_1..S_15 (after the round of step h, entry k is the product of the
    2h entries from k on), X is one stacked product, and the traces are one
    real matrix product with the basis table.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (15,):
        raise ValueError(f"expected 15 angles, got shape {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    s = np.concatenate((_factor_stack(_FACTORS, angles[1:]), _EYE))
    step = 1
    while step < 14:
        s[:15 - step] = s[:15 - step] @ s[step:]
        step *= 2
    x = s.conj().transpose(0, 2, 1) @ _LAMBDA_G @ s
    return x.reshape(15, 16).view(float) @ _BASIS


def _quadrature_volume(group: str, nodes: int) -> float:
    profile = range_profile(group, "volume")
    # Imported here: no other path uses it, and it loads numpy.polynomial.
    from numpy.polynomial.legendre import leggauss

    factors = _DENSITY_FACTORS[group]
    x, w = leggauss(nodes)
    total = float(_NORMALIZATION[group])
    for axis, (lo, hi) in enumerate(profile.bounds):
        if axis in factors:
            f = factors[axis][0]
            xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
            total *= 0.5 * (hi - lo) * float(np.sum(w * f(xm)))
        else:
            total *= hi - lo
    return total


# Rows per chunk of every seeded draw (Monte Carlo volume, scan angles) and
# of every compose/conjugate/classify pass: bounds the working arrays
# whatever the sample count.
CHUNK = 4096


def chunk_sizes(rows: int):
    """Sizes of the consecutive chunks of at most CHUNK rows covering rows."""
    return (min(CHUNK, rows - start) for start in range(0, rows, CHUNK))


def _seeded_rng(seed: int) -> np.random.Generator:
    """The one generator of a seeded draw: child 0 of SeedSequence(seed).

    Child 0, not the root sequence, is the stream the golden seeded outputs
    were drawn from, so they keep their bytes.
    """
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {_shown(seed)}")
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _advanced(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A generator continuing rng's stream draws doubles further on; rng
    itself does not move."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator).advance(draws))


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Chunks each worker takes per round of the Monte Carlo volume: the round's
# per-chunk sums are all that is held at once.
_ROUND = 16

# Most worker threads of the Monte Carlo volume.  Each holds one chunk's
# arrays (~0.42 MiB for SU(4)), and two is the count whose speedup was
# measured, so neither memory nor thread count grows with the machine.
_MAX_WORKERS = 2


def _monte_carlo_volume(group: str, samples: int, seed: int):
    """Uniform-proposal Monte Carlo over the nontrivial axes.

    The estimator averages the factorized density at uniform draws and
    multiplies by the box volume and the exact trivial-axis lengths; the
    standard error comes from the sample variance.  The draw comes from one
    seeded generator and is drawn and summed in chunks of CHUNK rows, so
    memory does not grow with samples.

    The chunks run on up to _MAX_WORKERS of the CPUs available to the
    process, in rounds of _ROUND chunks per worker; the thread count cannot
    be set.  A worker draws its contiguous run of chunks from a copy of the
    generator advanced to the run's first chunk, and the per-chunk sums are
    added in chunk order, so the result is the same float on any CPU count.
    """
    profile = range_profile(group, "volume")
    factors = _DENSITY_FACTORS[group]
    axes = sorted(factors)
    trivial = 1.0
    box = 1.0
    for axis, (lo, hi) in enumerate(profile.bounds):
        if axis in axes:
            box *= hi - lo
        else:
            trivial *= hi - lo
    scale = _NORMALIZATION[group] * trivial * box

    rng = _seeded_rng(seed)
    chunks = -(-samples // CHUNK)
    workers = min(_available_cpus(), _MAX_WORKERS, chunks)

    def chunk_sums(first, stop):
        """(sum, sum of squares) of the density over each of chunks
        first..stop-1."""
        draw = _advanced(rng, len(axes) * CHUNK * first)
        sums = []
        for index in range(first, stop):
            n = min(CHUNK, samples - index * CHUNK)
            u = draw.random((n, len(axes)))
            vals = np.ones(n)
            for col, axis in enumerate(axes):
                lo, hi = profile.bounds[axis]
                vals *= factors[axis][0](lo + (hi - lo) * u[:, col])
            sums.append((float(vals.sum()), float((vals**2).sum())))
        return sums

    # Imported here: no other path uses threads, and importing it costs ~6 ms.
    from concurrent.futures import ThreadPoolExecutor

    total = 0.0
    total_sq = 0.0
    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, chunks, workers * _ROUND):
            size = min(workers * _ROUND, chunks - start)
            edges = [start + size * w // workers for w in range(workers + 1)]
            for run in pool.map(chunk_sums, edges, edges[1:]):
                for chunk_total, chunk_total_sq in run:
                    total += chunk_total
                    total_sq += chunk_total_sq
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0) * samples / max(samples - 1, 1)
    return scale * mean, scale * np.sqrt(var / samples)


def group_volume(group: str, method: str = "quadrature", resolution: int = 64,
                 seed: int | None = None) -> VolumeResult:
    """Integrate the Haar density over the volume ranges and apply the
    center normalization.

    resolution is nodes per nontrivial axis (quadrature, 2 to 1024) or the
    total sample count (Monte Carlo, >= 1000).  A Monte Carlo estimate
    depends only on (group, resolution, seed), a seed of None reading as 0.
    Quadrature draws nothing and raises ValueError when given a seed.
    """
    g = normalize_group(group)
    if method == "quadrature":
        if seed is not None:
            raise ValueError("quadrature draws nothing and takes no seed")
        # leggauss builds an n x n companion matrix (n^3 time); 12 nodes
        # already reach 1e-15 relative error.
        if not (_is_integer(resolution) and 2 <= resolution <= 1024):
            raise ValueError("quadrature needs an integer resolution of 2 to "
                             f"1024 nodes per axis, got {resolution!r}")
        est = _quadrature_volume(g, resolution)
        return VolumeResult(est, 0.0, "quadrature", resolution, _NORMALIZATION[g])
    if method == "monte_carlo":
        if not (_is_integer(resolution) and resolution >= 1000):
            raise ValueError("Monte Carlo needs an integer resolution of at least "
                             f"1000 samples, got {resolution!r}")
        est, se = _monte_carlo_volume(g, resolution, 0 if seed is None else seed)
        return VolumeResult(est, se, "monte_carlo", resolution, _NORMALIZATION[g])
    raise ValueError(f"unknown method {method!r}; expected 'quadrature' or 'monte_carlo'")


def sample_haar_angles(rng: np.random.Generator, profile: RangeProfile,
                       size: int | None = None) -> np.ndarray:
    """Draw Euler angles distributed as the Haar density over the profile.

    The density factorizes per angle, so each nontrivial angle is drawn by
    the inverse CDF of its 1-D factor and every other angle uniformly over
    its interval.  Returns shape (dim,) or (size, dim).

    Over the covering ranges the composed elements are Haar on the group.
    The volume ranges are only an integration domain: elements composed
    from draws over them are not Haar (on SU(2), SU(3) and SU(4), |E tr U|
    is about 0.54, 0.44 and 0.76, where Haar gives 0).
    """
    factors = _DENSITY_FACTORS[profile.group]
    dim = profile.dim
    n = 1 if size is None else size
    u = rng.random((n, dim))
    out = np.empty_like(u)
    for axis, (lo, hi) in enumerate(profile.bounds):
        if axis in factors:
            out[:, axis] = factors[axis][1](u[:, axis])
        else:
            out[:, axis] = lo + (hi - lo) * u[:, axis]
    return out[0] if size is None else out


def sample_haar_unitary(rng: np.random.Generator,
                        profile: RangeProfile) -> np.ndarray:
    """Compose a group element from angles drawn by sample_haar_angles.

    Haar-distributed for the covering ranges only; see sample_haar_angles
    for the volume ranges.
    """
    return compose(_GENERATOR_SEQUENCES[profile.group],
                   sample_haar_angles(rng, profile))
