"""Haar measure on SU(4) in Euler angles: one-form coefficients, the
closed-form density, group volumes, and Haar sampling.

The density with respect to da1..da15 factorizes into one-dimensional
trigonometric factors in six of the fifteen angles, which makes volume
quadrature a product of 1-D quadratures and Haar sampling a set of
independent inverse-CDF draws.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .algebra import _right_multiply, gell_mann_stack
from .euler import (
    RangeProfile,
    SU3_GENERATOR_SEQUENCE,
    SU4_GENERATOR_SEQUENCE,
    compose_su2,
    compose_su3,
    compose_su4,
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


# 0-based axis index within the group's angle vector -> (factor, inverse CDF).
# All nontrivial axes run over [0, pi/2] in both range kinds.
_DENSITY_FACTORS = {
    "su2": {1: (_f_sin2, _icdf_sin2)},
    "su3": {
        1: (_f_sin2, _icdf_sin2),
        3: (_f_cos_sin3, _icdf_cos_sin3),
        5: (_f_sin2, _icdf_sin2),
    },
    "su4": {
        1: (_f_sin2, _icdf_sin2),
        3: (_f_cos3_sin, _icdf_cos3_sin),
        5: (_f_cos_sin5, _icdf_cos_sin5),
        7: (_f_sin2, _icdf_sin2),
        9: (_f_cos_sin3, _icdf_cos_sin3),
        11: (_f_sin2, _icdf_sin2),
    },
}


@dataclass(frozen=True)
class VolumeResult:
    estimate: float
    standard_error: float
    method: str
    samples_or_nodes: int
    normalization: int


def normalization_factor(group: str) -> int:
    """Center-element multiplicity factor: SU(2) -> 2, SU(3) -> 12, SU(4) -> 192."""
    return _NORMALIZATION[normalize_group(group)]


def analytic_volume(group: str) -> float:
    """Closed-form group volume: 2 pi^2, sqrt(3) pi^5, sqrt(2) pi^9 / 3."""
    return _ANALYTIC_VOLUME[normalize_group(group)]


_GROUP_DIM = {"su2": 3, "su3": 8, "su4": 15}


def _density(group: str, angles) -> np.ndarray | float:
    angles = np.asarray(angles, dtype=float)
    dim = _GROUP_DIM[group]
    if angles.shape[-1:] != (dim,):
        raise ValueError(f"expected trailing dimension {dim}, got {angles.shape}")
    out = np.ones(angles.shape[:-1])
    for axis, (factor, _) in _DENSITY_FACTORS[group].items():
        out = out * factor(angles[..., axis])
    return out if out.ndim else float(out)


def haar_density(angles) -> np.ndarray | float:
    """Closed-form SU(4) Haar density at a1..a15 (trailing axis may stack).

    Equals cos^3(a4) cos(a6) cos(a10) sin(2 a2) sin(a4) sin^5(a6)
    sin(2 a8) sin^3(a10) sin(2 a12); only the six even angles up to a12
    enter.
    """
    return _density("su4", angles)


def haar_density_su3(angles) -> np.ndarray | float:
    """SU(3) Haar density sin(2 a8) cos(a10) sin^3(a10) sin(2 a12) for the
    eight-angle vector a7..a14."""
    return _density("su3", angles)


def haar_density_su2(angles) -> np.ndarray | float:
    """SU(2) Haar density sin(2 nu) for (mu, nu, xi)."""
    return _density("su2", angles)


def _one_form_coefficients(generators, angles) -> np.ndarray:
    """Coefficients c_kj of the invariant one-forms of the chain
    U = F_1 ... F_n, F_k = exp(i a_k lam_{g(k)}), over lam_1..lam_n.

    With S = F_{k+1} ... F_n, S^dagger built from the right by the factors
    exp(-i a_k lam_{g(k)}) as k runs down,

        U^dagger dU/da_k = S^dagger (i lam_{g(k)}) S = i sum_j c_kj lam_j,

    so c_kj = Tr[lam_j S^dagger lam_{g(k)} S] / 2, real up to rounding since
    the conjugated generator is Hermitian; the real part is kept.
    """
    angles = np.asarray(angles, dtype=float)
    n = len(generators)
    if angles.shape != (n,):
        raise ValueError(f"expected {n} angles, got shape {angles.shape}")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    lam = gell_mann_stack()
    x = np.empty((n, 4, 4), dtype=complex)
    s_dag = np.eye(4, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = s_dag @ lam[generators[k] - 1] @ s_dag.conj().T
        _right_multiply(s_dag, generators[k], -angles[k])
    return 0.5 * np.einsum("jab,kba->kj", lam[:n], x).real


def one_form_matrix(angles) -> np.ndarray:
    """15x15 coefficient matrix c_kj for SU(4); |det| is the Haar density."""
    return _one_form_coefficients(SU4_GENERATOR_SEQUENCE, angles)


def one_form_matrix_su3(angles) -> np.ndarray:
    """8x8 coefficient matrix for the SU(3) chain a7..a14 over lam_1..lam_8."""
    return _one_form_coefficients(SU3_GENERATOR_SEQUENCE, angles)


def _quadrature_volume(group: str, nodes: int) -> float:
    profile = range_profile(group, "volume")
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


def split_streams(seed: int, workers: int, samples: int):
    """RNG sub-streams for a seeded draw of samples values.

    workers counts sub-streams, not processes: the samples split into
    min(workers, samples) contiguous blocks, block w drawn from child w of
    SeedSequence(seed).  Yields (generator, block size) in sample order, so
    a draw depends only on (seed, min(workers, samples)).  A stream past the
    sample count would draw nothing; spawning it would still cost time and
    memory.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, samples)
    streams = np.random.SeedSequence(seed).spawn(workers)
    return ((np.random.default_rng(stream),
             samples // workers + (1 if w < samples % workers else 0))
            for w, stream in enumerate(streams))


def _monte_carlo_volume(group: str, samples: int, seed: int, workers: int):
    """Uniform-proposal Monte Carlo over the nontrivial axes.

    The estimator averages the factorized density at uniform draws and
    multiplies by the box volume and the exact trivial-axis lengths; the
    standard error comes from the sample variance.  The draw is split into
    RNG sub-streams by split_streams, and each sub-stream is drawn and
    summed in chunks of CHUNK rows, so memory does not grow with samples.
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

    total = 0.0
    total_sq = 0.0
    for rng, n_w in split_streams(seed, workers, samples):
        for n in chunk_sizes(n_w):
            u = rng.random((n, len(axes)))
            vals = np.ones(n)
            for col, axis in enumerate(axes):
                lo, hi = profile.bounds[axis]
                vals *= factors[axis][0](lo + (hi - lo) * u[:, col])
            total += float(vals.sum())
            total_sq += float((vals**2).sum())
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0) * samples / max(samples - 1, 1)
    return scale * mean, scale * np.sqrt(var / samples)


def group_volume(group: str, method: str = "quadrature", resolution: int = 64,
                 seed: int = 0, workers: int = 1) -> VolumeResult:
    """Integrate the Haar density over the volume ranges and apply the
    center normalization.

    resolution is nodes per nontrivial axis (quadrature, 2 to 1024) or the
    total sample count (Monte Carlo, >= 1000).  For Monte Carlo, workers counts
    RNG sub-streams run serially in one process, and the estimate depends
    only on (seed, min(workers, resolution)).
    """
    g = normalize_group(group)
    if method == "quadrature":
        # leggauss builds an n x n companion matrix (n^3 time); 12 nodes
        # already reach 1e-15 relative error.
        if not 2 <= resolution <= 1024:
            raise ValueError("quadrature needs 2 to 1024 nodes per "
                             f"axis, got {resolution}")
        est = _quadrature_volume(g, resolution)
        return VolumeResult(est, 0.0, "quadrature", resolution, _NORMALIZATION[g])
    if method == "monte_carlo":
        if resolution < 1000:
            raise ValueError("Monte Carlo needs at least 1000 samples")
        est, se = _monte_carlo_volume(g, resolution, seed, workers)
        return VolumeResult(est, se, "monte_carlo", resolution, _NORMALIZATION[g])
    raise ValueError(f"unknown method {method!r}; expected 'quadrature' or 'monte_carlo'")


def sample_haar_angles(rng: np.random.Generator, profile: RangeProfile,
                       size: int | None = None) -> np.ndarray:
    """Draw Euler angles distributed as the Haar density over the profile.

    The density factorizes per angle, so each nontrivial angle is drawn by
    the inverse CDF of its 1-D factor and every other angle uniformly over
    its interval.  Returns shape (dim,) or (size, dim).
    """
    factors = _DENSITY_FACTORS[profile.group]
    dim = profile.dim
    n = 1 if size is None else size
    u = rng.random((n, dim))
    out = np.empty_like(u)
    for axis, (lo, hi) in enumerate(profile.bounds):
        if axis in factors:
            # Inverse CDFs are derived on [0, pi/2]; both range kinds use it.
            if not (lo == 0.0 and np.isclose(hi, np.pi / 2)):
                raise ValueError(
                    f"nontrivial axis {axis} has unexpected bounds ({lo}, {hi})"
                )
            out[:, axis] = factors[axis][1](u[:, axis])
        else:
            out[:, axis] = lo + (hi - lo) * u[:, axis]
    return out[0] if size is None else out


def sample_haar_unitary(rng: np.random.Generator,
                        profile: RangeProfile) -> np.ndarray:
    """Compose a Haar-distributed group element from sampled angles."""
    angles = sample_haar_angles(rng, profile)
    if profile.group == "su2":
        return compose_su2(*angles)
    if profile.group == "su3":
        return compose_su3(angles)
    return compose_su4(angles)
