"""One-form coefficients, closed-form density, volumes, Haar sampling."""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from su4euler import (
    SU2_GENERATOR_SEQUENCE,
    SU3_GENERATOR_SEQUENCE,
    SU4_GENERATOR_SEQUENCE,
    analytic_volume,
    compose,
    compose_su2,
    compose_su3,
    compose_su4,
    exp_generator,
    gell_mann,
    group_volume,
    haar_density,
    haar_density_su2,
    haar_density_su3,
    one_form_matrix,
    one_form_matrix_su3,
    range_profile,
    sample_haar_angles,
    sample_haar_unitary,
)
from su4euler.haar import _DENSITY_FACTORS, _f_cos_sin3, _f_sin2

# One-sample KS critical coefficient at the 1% level.
KS_C01 = 1.628


def uniform_points(seed, n, profile):
    rng = np.random.default_rng(seed)
    return profile.lengths() * rng.random((n, profile.dim))


def test_one_form_zero_angles_canonical_rows():
    c = one_form_matrix(np.zeros(15))
    for k, g in enumerate(SU4_GENERATOR_SEQUENCE):
        row = np.zeros(15)
        row[g - 1] = 1.0
        assert np.abs(c[k] - row).max() < 1e-14


def test_one_form_zero_block():
    profile = range_profile("su4", "volume")
    for point in uniform_points(21, 50, profile):
        c = one_form_matrix(point)
        assert np.abs(c[6:15, 8:14]).max() < 1e-12


def test_one_form_determinant_matches_density():
    # The dual route: exact conjugation construction vs the closed form.
    profile = range_profile("su4", "volume")
    for point in uniform_points(22, 100, profile):
        det = abs(np.linalg.det(one_form_matrix(point)))
        density = haar_density(point)
        assert abs(det - density) <= 1e-8 * abs(density)


def test_one_form_su3_matches_su3_density():
    profile = range_profile("su3", "volume")
    for point in uniform_points(23, 50, profile):
        det = abs(np.linalg.det(one_form_matrix_su3(point)))
        density = haar_density_su3(point)
        assert abs(det - density) <= 1e-8 * abs(density)


def one_form_by_differences(compose_fn, point, basis, h=1e-6):
    """Rows c_kj with U^dagger dU/da_k = i sum_j c_kj lam_j, by central
    differences of the composed matrix; complex, so residues show."""
    u = compose_fn(point)
    rows = []
    for k in range(len(point)):
        step = np.zeros(len(point))
        step[k] = h
        x = u.conj().T @ (compose_fn(point + step) - compose_fn(point - step)) / (2 * h)
        rows.append([-0.5j * np.trace(gell_mann(j) @ x) for j in basis])
    return np.array(rows)


@pytest.mark.parametrize("kind", ["volume", "covering"])
@pytest.mark.parametrize("group,compose_fn,one_form,basis", [
    ("su4", compose_su4, one_form_matrix, range(1, 16)),
    ("su3", compose_su3, one_form_matrix_su3, range(1, 9)),
], ids=["su4", "su3"])
def test_one_form_rows_match_finite_differences(kind, group, compose_fn,
                                                one_form, basis):
    profile = range_profile(group, kind)
    for point in uniform_points(24, 10, profile):
        rows = one_form_by_differences(compose_fn, point, basis)
        assert np.abs(rows.imag).max() <= 1e-8
        assert np.abs(rows.real - one_form(point)).max() <= 1e-8


def one_form_by_transposed_chain(generators, angles, basis):
    """Rows c_kj from the transposed chain u = U^T: with E the product of the
    transposed factors above k, c_kj = (-i/2) Tr[lam_j^T E (i lam_g^T) E^-1]."""
    lam_t = np.stack([gell_mann(j).T for j in basis])
    c = np.empty((len(generators), len(basis)))
    prefix = np.eye(4, dtype=complex)
    for k in range(len(generators), 0, -1):
        g = generators[k - 1]
        m_k = prefix @ (1j * gell_mann(g).T) @ prefix.conj().T
        c[k - 1] = (-0.5j * np.einsum("jab,ba->j", lam_t, m_k)).real
        prefix = prefix @ exp_generator(g, angles[k - 1]).T
    return c


@pytest.mark.parametrize("group,generators,one_form", [
    ("su4", SU4_GENERATOR_SEQUENCE, one_form_matrix),
    ("su3", SU3_GENERATOR_SEQUENCE, one_form_matrix_su3),
], ids=["su4", "su3"])
def test_one_form_rows_match_transposed_chain(group, generators, one_form):
    basis = range(1, len(generators) + 1)
    points = [np.zeros(len(generators))]
    for seed, kind in [(26, "volume"), (27, "covering")]:
        points.extend(uniform_points(seed, 100, range_profile(group, kind)))
    # Corners of the volume ranges, each angle at 0 or its upper end: the
    # off-diagonal factors sit at 0 or pi/2, so their cos and sin are 0 or
    # 1 up to the rounding of pi/2.  All 2^8 for SU(3), a seeded 256 of the
    # 2^15 for SU(4).
    n = len(generators)
    corners = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    if len(corners) > 256:
        corners = np.random.default_rng(28).choice(corners, 256, replace=False)
    points.extend(corners * range_profile(group, "volume").lengths())
    for point in points:
        expected = one_form_by_transposed_chain(generators, point, basis)
        assert np.abs(one_form(point) - expected).max() <= 1e-15


def test_density_vanishing_factor():
    angles = np.full(15, 0.9)
    angles[3] = 0.0  # sin(a4) factor
    assert haar_density(angles) == 0.0
    su3 = np.full(8, 0.8)
    su3[3] = 0.0  # sin^3(a10) factor
    assert haar_density_su3(su3) == 0.0


def test_density_spot_value():
    # All six nontrivial angles at pi/4: fourteen factors of 1/sqrt(2),
    # cross-checked against |det| of the one-form matrix.
    point = np.full(15, np.pi / 4.0)
    value = haar_density(point)
    assert abs(value - 2.0**-7) < 1e-15
    assert abs(abs(np.linalg.det(one_form_matrix(point))) - value) < 1e-12 * value


def test_density_positive_in_volume_interior():
    profile = range_profile("su4", "volume")
    for point in uniform_points(24, 200, profile):
        assert haar_density(point) > 0.0


def test_density_depends_only_on_six_angles():
    rng = np.random.default_rng(25)
    base = rng.uniform(0.1, 1.4, 15)
    other = base.copy()
    for idx in (0, 2, 4, 6, 8, 10, 12, 13, 14):
        other[idx] = rng.uniform(0, 2 * np.pi)
    assert haar_density(base) == haar_density(other)


def test_normalization_factors():
    for group, factor in (("su2", 2), ("su3", 12), ("su4", 192)):
        assert group_volume(group, "quadrature", 2).normalization == factor


def test_quadrature_volumes():
    for group, tol in (("su2", 1e-12), ("su3", 1e-10), ("su4", 1e-10)):
        result = group_volume(group, "quadrature", 48)
        target = analytic_volume(group)
        assert abs(result.estimate - target) <= tol * target
        assert result.standard_error == 0.0


def test_quadrature_converges_by_32_nodes():
    target = analytic_volume("su4")
    result = group_volume("su4", "quadrature", 32)
    assert abs(result.estimate - target) <= 1e-10 * target


def test_analytic_volume_values():
    assert analytic_volume("su2") == 2.0 * np.pi**2
    assert analytic_volume("su3") == np.sqrt(3.0) * np.pi**5
    assert analytic_volume("su4") == np.sqrt(2.0) * np.pi**9 / 3.0


def test_monte_carlo_within_four_sigma():
    for seed in (0, 7, 123):
        result = group_volume("su4", "monte_carlo", 50_000, seed=seed)
        target = analytic_volume("su4")
        assert result.standard_error > 0.0
        assert abs(result.estimate - target) <= 4.0 * result.standard_error


def test_monte_carlo_deterministic_per_config():
    a = group_volume("su3", "monte_carlo", 20_000, seed=11)
    b = group_volume("su3", "monte_carlo", 20_000, seed=11)
    assert a == b
    c = group_volume("su3", "monte_carlo", 20_000, seed=12)
    assert c.estimate != a.estimate


@pytest.mark.parametrize("seed", ["not a seed", -5, 0, 3])
def test_quadrature_takes_no_seed(seed):
    # Quadrature draws nothing, so a seed given to it is refused, not ignored.
    with pytest.raises(ValueError, match="seed"):
        group_volume("su2", "quadrature", 8, seed=seed)


@pytest.mark.parametrize("seed,shown", [
    ("x" * 300, "'" + "x" * 60 + "'… (300 chars)"),
    ("", "''"),
], ids=["long", "empty"])
def test_rejected_seed_is_shown_by_its_repr_cut_short(seed, shown):
    # errors._shown: a 300-character seed is echoed as its first 60.
    with pytest.raises(ValueError) as raised:
        group_volume("su2", "monte_carlo", 1000, seed=seed)
    assert str(raised.value) == f"seed must be an integer >= 0, got {shown}"


def test_monte_carlo_seed_defaults_to_zero():
    result = group_volume("su4", "monte_carlo", 10**5)
    assert result == group_volume("su4", "monte_carlo", 10**5, seed=0)
    assert result == group_volume("su4", "monte_carlo", 10**5, seed=None)


def test_volume_resolution_validation():
    with pytest.raises(ValueError):
        group_volume("su4", "quadrature", 1)
    with pytest.raises(ValueError):
        group_volume("su4", "monte_carlo", 999)
    with pytest.raises(ValueError):
        group_volume("su4", "midpoint", 10)


def test_quadrature_node_count_bounded():
    assert group_volume("su2", "quadrature", 1024).estimate == pytest.approx(
        analytic_volume("su2"), rel=1e-12)
    with pytest.raises(ValueError, match="2 to 1024 nodes per axis, got 1025"):
        group_volume("su2", "quadrature", 1025)
    # Refused before the 10^6 x 10^6 companion matrix is allocated.
    with pytest.raises(ValueError, match="2 to 1024 nodes"):
        group_volume("su4", "quadrature", 10**6)


def test_su2_covering_ranges_absorb_center_factor():
    # Doubling xi doubles the bare integral, exactly absorbing the center
    # factor 2: integrating sin(2 nu) over the covering box with no
    # normalization reproduces the full SU(2) volume.
    cov = range_profile("su2", "covering")
    (lo_m, hi_m), (lo_n, hi_n), (lo_x, hi_x) = cov.bounds
    x, w = np.polynomial.legendre.leggauss(48)
    nu = 0.5 * (hi_n + lo_n) + 0.5 * (hi_n - lo_n) * x
    bare = (hi_m - lo_m) * (hi_x - lo_x) * 0.5 * (hi_n - lo_n) * np.sum(
        w * haar_density_su2(np.stack([np.zeros_like(nu), nu, np.zeros_like(nu)], axis=-1)))
    normalized = group_volume("su2", "quadrature", 48).estimate
    assert abs(bare - normalized) <= 1e-12 * normalized


def test_sample_haar_angles_deterministic():
    profile = range_profile("su4", "volume")
    a = sample_haar_angles(np.random.default_rng(42), profile, size=10)
    b = sample_haar_angles(np.random.default_rng(42), profile, size=10)
    assert np.array_equal(a, b)


def test_sample_haar_angles_within_bounds():
    for kind in ("volume", "covering"):
        profile = range_profile("su4", kind)
        draws = sample_haar_angles(np.random.default_rng(1), profile, size=500)
        highs = np.array([hi for _, hi in profile.bounds])
        assert (draws >= 0.0).all()
        assert (draws <= highs).all()


@pytest.mark.parametrize("kind", ["volume", "covering"])
@pytest.mark.parametrize("group", ["su2", "su3", "su4"])
def test_inverse_cdf_axes_span_zero_to_half_pi(group, kind):
    # The inverse CDFs are derived on [0, pi/2], and sample_haar_angles
    # applies them to every nontrivial axis of either range kind unchecked.
    bounds = range_profile(group, kind).bounds
    assert all(bounds[axis] == (0.0, np.pi / 2) for axis in _DENSITY_FACTORS[group])


def test_subgroup_density_factors():
    # SU(3)'s a8, a10, a12 and SU(2)'s nu, by position in each group's angles.
    assert {axis: f for axis, (f, _) in _DENSITY_FACTORS["su3"].items()} == {
        1: _f_sin2, 3: _f_cos_sin3, 5: _f_sin2}
    assert {axis: f for axis, (f, _) in _DENSITY_FACTORS["su2"].items()} == {1: _f_sin2}


def test_alpha2_marginal_matches_analytic_cdf():
    profile = range_profile("su4", "volume")
    n = 100_000
    draws = sample_haar_angles(np.random.default_rng(2024), profile, size=n)
    stat = stats.kstest(draws[:, 1], lambda x: np.sin(x) ** 2).statistic
    assert stat < KS_C01 / np.sqrt(n)


def test_alpha4_marginal_matches_analytic_cdf():
    profile = range_profile("su4", "volume")
    n = 100_000
    draws = sample_haar_angles(np.random.default_rng(2025), profile, size=n)
    stat = stats.kstest(draws[:, 3], lambda x: 1.0 - np.cos(x) ** 4).statistic
    assert stat < KS_C01 / np.sqrt(n)


def test_alpha1_marginal_uniform():
    profile = range_profile("su4", "volume")
    n = 100_000
    draws = sample_haar_angles(np.random.default_rng(2026), profile, size=n)
    stat = stats.kstest(draws[:, 0], stats.uniform(0, np.pi).cdf).statistic
    assert stat < KS_C01 / np.sqrt(n)


@pytest.mark.parametrize("group,compose_group", [
    ("su2", lambda angles: compose_su2(*angles)),
    ("su3", compose_su3),
    ("su4", compose_su4),
], ids=["su2", "su3", "su4"])
def test_sample_haar_unitary_deterministic_and_special_unitary(group, compose_group):
    profile = range_profile(group, "covering")
    u1 = sample_haar_unitary(np.random.default_rng(9), profile)
    u2 = sample_haar_unitary(np.random.default_rng(9), profile)
    assert np.array_equal(u1, u2)
    angles = sample_haar_angles(np.random.default_rng(9), profile)
    assert np.array_equal(u1, compose_group(angles))
    rng = np.random.default_rng(10)
    for _ in range(200):
        u = sample_haar_unitary(rng, profile)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_haar_column_uniformity():
    # First column of a Haar unitary is uniform on the unit sphere in C^4,
    # so E|U_11|^2 = 1/4.  |U_11|^2 is center-invariant, hence insensitive
    # to which range kind generated the sample.
    rng = np.random.default_rng(31)
    profile = range_profile("su4", "covering")
    n = 10_000
    vals = np.array([abs(sample_haar_unitary(rng, profile)[0, 0]) ** 2
                     for _ in range(n)])
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 0.25) <= 4.0 * se


def test_entry_distribution_matches_qr_haar_oracle():
    # Independent cross-check: |U_11|^2 against the QR-based Haar sampler.
    rng = np.random.default_rng(57)
    profile = range_profile("su4", "covering")
    n = 4000
    ours = np.array([abs(sample_haar_unitary(rng, profile)[0, 0]) ** 2
                     for _ in range(n)])

    def qr_haar(generator):
        z = (generator.standard_normal((4, 4))
             + 1j * generator.standard_normal((4, 4))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    theirs = np.array([abs(qr_haar(rng)[0, 0]) ** 2 for _ in range(n)])
    stat = stats.ks_2samp(ours, theirs).statistic
    assert stat < KS_C01 * np.sqrt(2.0 / n)


@functools.cache
def covering_traces(group):
    """tr U of 10^5 elements of SU(N) composed from sample_haar_angles over
    the covering ranges (N x N block of the embedded 4x4)."""
    n, sequence = {"su2": (2, SU2_GENERATOR_SEQUENCE),
                   "su3": (3, SU3_GENERATOR_SEQUENCE),
                   "su4": (4, SU4_GENERATOR_SEQUENCE)}[group]
    angles = sample_haar_angles(np.random.default_rng(5),
                                range_profile(group, "covering"), size=10**5)
    return np.trace(compose(sequence, angles)[:, :n, :n], axis1=1, axis2=2)


# Haar moments on SU(N) (Diaconis & Shahshahani, J. Appl. Probab. 31A, 1994):
# E tr U = 0 and E|tr U|^{2k} = k! for k <= N.  Draws over the volume ranges
# read |E tr U| = 0.54, 0.44 and 0.76 (155 to 292 standard errors here),
# and on SU(4) E|tr U|^{2k} = 1.27, 2.86, 9.04 and 36.8.  |U_11|^2 cannot
# tell the two range kinds apart; these moments can.
@pytest.mark.parametrize("group", ["su2", "su3", "su4"])
def test_haar_trace_has_zero_mean(group):
    traces = covering_traces(group)
    mean = traces.mean()
    standard_error = np.sqrt(np.mean(abs(traces - mean) ** 2) / len(traces))
    assert abs(mean) <= 5.0 * standard_error


@pytest.mark.parametrize("group,n", [("su2", 2), ("su3", 3), ("su4", 4)])
def test_haar_trace_moments_count_permutations(group, n):
    traces = covering_traces(group)
    for k in range(1, n + 1):
        powers = abs(traces) ** (2 * k)
        standard_error = powers.std(ddof=1) / np.sqrt(len(powers))
        assert abs(powers.mean() - math.factorial(k)) <= 5.0 * standard_error, k


def test_sampled_angles_compose_like_profile():
    profile = range_profile("su4", "volume")
    angles = sample_haar_angles(np.random.default_rng(90), profile)
    u = compose_su4(angles)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
