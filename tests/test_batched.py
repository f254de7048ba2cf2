"""The stacked compose -> conjugate -> classify kernel against the
per-state route, bit for bit, plus the argument checks of the seeded draws."""

import itertools

import numpy as np
import pytest

from su4euler import (
    CONJUGATION_SEQUENCE,
    SPECTRUM_LOWER,
    SPECTRUM_UPPER,
    SU4_GENERATOR_SEQUENCE,
    ValidationError,
    classify,
    compose,
    conjugate,
    corner_scan,
    exp_generator,
    group_volume,
    is_entangled,
    rho_diagonal,
    rho_full,
    scan,
    spectrum_diagonal,
    validate_density_matrix,
)
from su4euler.separability import corner_angles

from conftest import scan_columns


def assert_matches_per_state(columns, rows):
    for i in rows:
        verdict = is_entangled(rho_full(columns.alphas[i], columns.thetas[i]))
        assert verdict.d_value == columns.d[i], columns.index[i]
        assert verdict.min_eigenvalue == columns.min_eig[i], columns.index[i]
        assert verdict.negative_count == columns.neg_count[i]
        assert verdict.entangled == columns.entangled[i]
        assert verdict.boundary == columns.boundary[i]


def test_exp_generator_stack_equals_scalar_calls():
    angles = np.random.default_rng(1).uniform(-7.0, 7.0, size=(40, 3))
    for index in range(1, 16):
        stack = exp_generator(index, angles)
        assert stack.shape == (40, 3, 4, 4)
        for pos in np.ndindex(angles.shape):
            single = exp_generator(index, angles[pos])
            # Compare the raw float pairs so signed zeros count too.
            assert np.array_equal(stack[pos].view(float), single.view(float))
            assert np.array_equal(np.signbit(stack[pos].view(float)),
                                  np.signbit(single.view(float)))


def test_exp_generator_stack_rejects_nonfinite():
    with pytest.raises(ValueError):
        exp_generator(5, np.array([0.1, np.nan]))


def test_compose_stack_equals_per_row():
    angles = np.random.default_rng(2).uniform(-4.0, 4.0, size=(5, 60, 15))
    stack = compose(SU4_GENERATOR_SEQUENCE, angles)
    assert stack.shape == (5, 60, 4, 4)
    for pos in np.ndindex(angles.shape[:-1]):
        assert np.array_equal(stack[pos],
                              compose(SU4_GENERATOR_SEQUENCE, angles[pos]))
    with pytest.raises(ValueError):
        compose(CONJUGATION_SEQUENCE, angles)


def test_spectrum_squares_keep_scalar_pow_rounding():
    # Array x**2 is x*x, which differs from pow(x, 2) in the last bit on a
    # small share of inputs; the stacked spectrum must keep pow's rounding,
    # for a stack, a single unstacked triple and the spectrum corners.
    corners = np.array(list(itertools.product(*zip(SPECTRUM_LOWER, SPECTRUM_UPPER))))
    for thetas in (np.random.default_rng(5).uniform(0.5, 1.6, size=(20000, 3)),
                   np.array([1.0, 1.1, 1.2]), corners):
        expected = []
        for t1, t2, t3 in thetas.reshape(-1, 3):
            w2, x2, y2 = np.sin(t1) ** 2, np.sin(t2) ** 2, np.sin(t3) ** 2
            expected.append([w2 * x2 * y2, (1.0 - w2) * x2 * y2, (1.0 - x2) * y2,
                             1.0 - y2])
        expected = np.array(expected).reshape(thetas.shape[:-1] + (4,))
        assert np.array_equal(spectrum_diagonal(thetas), expected)


def dense_rho_diagonal(theta):
    """rho_d built as a dense complex matrix with the spectrum on its diagonal."""
    spectrum = spectrum_diagonal(theta)
    rho = np.zeros(spectrum.shape[:-1] + (16,), dtype=complex)
    rho[..., ::5] = spectrum  # every fifth entry of a flat 4x4 is diagonal
    return rho.reshape(spectrum.shape + (4,))


def assert_same_words(a, b):
    """Equal dtype, shape and raw float words, so signed zeros count."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_conjugate_equals_dense_matrix_product():
    # conjugate scales V's columns by the spectrum instead of multiplying by
    # rho_d; the zeros of rho_d only ever add exact zeros, so no bit moves.
    rng = np.random.default_rng(8)
    lo = np.array(SPECTRUM_LOWER)
    hi = np.array(SPECTRUM_UPPER)
    random = (rng.uniform(0.0, np.pi, (5000, 12)),
              lo + (hi - lo) * rng.random((5000, 3)))
    single = (rng.uniform(0.0, np.pi, 12), np.array([1.0, 1.1, 1.2]))
    for alphas, thetas in itertools.chain(corner_angles(), [random, single]):
        v = compose(CONJUGATION_SEQUENCE, alphas)
        old = v @ dense_rho_diagonal(thetas) @ v.conj().swapaxes(-1, -2)
        assert_same_words(conjugate(v, thetas), old)
        assert_same_words(rho_full(alphas, thetas), old)
        assert_same_words(rho_diagonal(thetas), dense_rho_diagonal(thetas))
    # A real orthogonal V still gives a complex state, as the product did.
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    theta = np.array([1.0, 1.1, 1.2])
    assert_same_words(conjugate(q, theta), q @ dense_rho_diagonal(theta) @ q.T)


def test_rho_full_stack_equals_per_state():
    rng = np.random.default_rng(3)
    alphas = rng.uniform(0.0, np.pi, size=(200, 12))
    thetas = rng.uniform(0.5, 1.6, size=(200, 3))
    stack = rho_full(alphas, thetas)
    for i in range(200):
        assert np.array_equal(stack[i], rho_full(alphas[i], thetas[i]))


@pytest.mark.parametrize("seed", [1, 7, 15, 2])
def test_scan_records_equal_per_state_route(seed):
    columns = scan_columns(scan(150, seed=seed))
    assert columns.index.tolist() == list(range(150))
    assert_matches_per_state(columns, range(150))


def test_scan_across_chunk_boundary_equals_per_state_route():
    columns = scan_columns(scan(4200, seed=21))
    assert_matches_per_state(columns, [*range(4000, 4200), *range(0, 4000, 97)])


def test_scan_covering_and_fixed_spectrum_equal_per_state_route():
    theta = (1.0, 1.2, 1.4)
    for chunks in (scan(100, seed=22),
                   scan(100, seed=23, spectrum_policy=theta)):
        assert_matches_per_state(scan_columns(chunks), range(100))


def test_corner_scan_strided_subset_equals_per_state_route():
    columns = scan_columns(corner_scan())
    assert len(columns.index) == 2**15
    assert_matches_per_state(columns, [*range(0, 2**15, 331), *range(4090, 4102)])


def test_classify_stack_matches_is_entangled():
    rng = np.random.default_rng(4)
    alphas = rng.uniform(0.0, np.pi, size=(3, 7, 12))
    thetas = rng.uniform(0.8, 1.5, size=(3, 7, 3))
    columns = classify(rho_full(alphas, thetas))
    assert columns.d.shape == columns.neg_count.shape == (3, 7)
    for pos in np.ndindex(3, 7):
        verdict = is_entangled(rho_full(alphas[pos], thetas[pos]))
        assert columns.d[pos] == verdict.d_value
        assert columns.min_eig[pos] == verdict.min_eigenvalue
        assert columns.neg_count[pos] == verdict.negative_count
        assert columns.entangled[pos] == verdict.entangled
        assert columns.boundary[pos] == verdict.boundary


def test_is_entangled_rejects_non_4x4_input():
    with pytest.raises(ValidationError, match="shape"):
        is_entangled(np.eye(3, dtype=complex) / 3.0)
    with pytest.raises(ValidationError, match="shape"):
        is_entangled(np.stack([np.eye(4, dtype=complex) / 4.0] * 2))


def test_validate_stack_names_invariant_and_state():
    good = np.eye(4, dtype=complex) / 4.0
    stack = np.stack([good] * 5)
    validate_density_matrix(stack)
    stack[3, 0, 0] += 0.5
    with pytest.raises(ValidationError, match=r"trace .* at state \(3,\)"):
        validate_density_matrix(stack)
    stack[1, 0, 1] = 0.1
    with pytest.raises(ValidationError, match=r"hermiticity .* at state \(1,\)"):
        classify(stack)
    with pytest.raises(ValidationError, match="shape"):
        validate_density_matrix(np.ones((2, 3, 3)))


@pytest.mark.parametrize("call,name", [
    (lambda: scan(10.5), "samples"),
    (lambda: scan(np.float64(10)), "samples"),
    (lambda: group_volume("su2", "monte_carlo", 1000.5), "resolution"),
    (lambda: group_volume("su2", "quadrature", 12.5), "resolution"),
    (lambda: scan(True), "samples"),
    (lambda: scan(3, seed=True), "seed"),
    (lambda: group_volume("su2", "monte_carlo", 1000, seed=True), "seed"),
], ids=["scan-samples", "scan-float-samples", "mc-resolution", "quad-resolution",
        "scan-bool-samples", "scan-bool-seed", "mc-bool-seed"])
def test_counts_must_be_integers(call, name):
    with pytest.raises(ValueError, match="integer") as info:
        call()
    assert name in str(info.value)


def test_seeded_draws_use_first_spawned_child():
    from su4euler.haar import _seeded_rng

    child = np.random.SeedSequence(3).spawn(1)[0]
    expected = np.random.default_rng(child).random(4)
    assert np.array_equal(_seeded_rng(3).random(4), expected)
    with pytest.raises(ValueError, match="seed must be an integer"):
        _seeded_rng(True)
    with pytest.raises(ValueError, match="seed must be an integer"):
        _seeded_rng(-1)
