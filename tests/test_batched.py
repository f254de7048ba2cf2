"""The stacked compose -> conjugate -> classify kernel against the
per-state route, bit for bit, plus the worker-count cap."""

import json

import numpy as np
import pytest

from su4euler import (
    CONJUGATION_SEQUENCE,
    SU4_GENERATOR_SEQUENCE,
    ValidationError,
    classify,
    compose,
    corner_scan,
    exp_generator,
    group_volume,
    is_entangled,
    rho_full,
    scan,
    spectrum_diagonal,
    validate_density_matrix,
)


def assert_matches_per_state(record):
    verdict = is_entangled(rho_full(record.alphas, record.thetas))
    assert verdict.d_value == record.d, record.sample_index
    assert verdict.min_eigenvalue == record.min_eig, record.sample_index
    assert verdict.negative_count == record.neg_count
    assert verdict.entangled == record.entangled
    assert verdict.boundary == record.boundary


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
    # small share of inputs; the stacked spectrum must keep pow's rounding.
    thetas = np.random.default_rng(5).uniform(0.5, 1.6, size=(20000, 3))
    expected = []
    for t1, t2, t3 in thetas:
        w2, x2, y2 = np.sin(t1) ** 2, np.sin(t2) ** 2, np.sin(t3) ** 2
        expected.append([w2 * x2 * y2, (1.0 - w2) * x2 * y2, (1.0 - x2) * y2,
                         1.0 - y2])
    assert np.array_equal(spectrum_diagonal(thetas), np.array(expected))


def test_rho_full_stack_equals_per_state():
    rng = np.random.default_rng(3)
    alphas = rng.uniform(0.0, np.pi, size=(200, 12))
    thetas = rng.uniform(0.5, 1.6, size=(200, 3))
    stack = rho_full(alphas, thetas)
    for i in range(200):
        assert np.array_equal(stack[i], rho_full(alphas[i], thetas[i]))


@pytest.mark.parametrize("seed,workers", [(1, 1), (7, 3), (15, 4), (2, 50)])
def test_scan_records_equal_per_state_route(seed, workers):
    records = scan(150, seed=seed, workers=workers)
    assert [r.sample_index for r in records] == list(range(150))
    for record in records:
        assert_matches_per_state(record)


def test_scan_across_chunk_boundary_equals_per_state_route():
    records = scan(4200, seed=21, workers=2)
    for record in records[4000:4200] + records[:4000:97]:
        assert_matches_per_state(record)


def test_scan_covering_and_fixed_spectrum_equal_per_state_route():
    theta = (1.0, 1.2, 1.4)
    for records in (scan(100, seed=22, angle_profile="covering"),
                    scan(100, seed=23, spectrum_policy=theta, workers=3)):
        for record in records:
            assert_matches_per_state(record)


def test_corner_scan_strided_subset_equals_per_state_route():
    records = corner_scan()
    assert len(records) == 2**15
    for record in records[::331] + records[4090:4102]:
        assert_matches_per_state(record)


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


def test_scan_workers_capped_at_samples():
    # Workers are RNG sub-streams: no process or thread is started.
    assert scan(5, seed=1, workers=10**12) == scan(5, seed=1, workers=5)


def test_monte_carlo_workers_capped_at_samples():
    capped = group_volume("su2", "monte_carlo", 1000, workers=10**12)
    assert capped == group_volume("su2", "monte_carlo", 1000, workers=1000)


def test_split_streams_contiguous_blocks_from_spawned_children():
    from su4euler.haar import split_streams

    blocks = list(split_streams(3, 4, 10))
    assert [n for _, n in blocks] == [3, 3, 2, 2]
    children = np.random.SeedSequence(3).spawn(4)
    for (rng, _), child in zip(blocks, children):
        assert rng.random() == np.random.default_rng(child).random()
    assert [n for _, n in split_streams(3, 10**12, 2)] == [1, 1]
    with pytest.raises(ValueError, match="workers must be >= 1"):
        split_streams(3, 0, 10)


def test_cli_config_echoes_requested_workers(capsys):
    from su4euler.cli import main

    assert main(["scan", "--samples", "3", "--seed", "1", "--workers",
                 str(10**12), "--format", "json"]) == 0
    capped = json.loads(capsys.readouterr().out)
    assert capped["config"]["workers"] == 10**12
    assert main(["scan", "--samples", "3", "--seed", "1", "--workers", "3",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == capped["records"]
