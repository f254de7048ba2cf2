"""Partial transpose, characteristic polynomial, resolvent path, scans."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from su4euler import (
    CharPolyCoeffs,
    DepressedQuartic,
    ValidationError,
    char_poly_coeffs,
    classify,
    corner_scan,
    depressed_quartic,
    eigenvalues_via_resolvent,
    is_entangled,
    partial_transpose,
    range_profile,
    resolvent_roots,
    rho_full,
    sample_haar_unitary,
    scan,
    validate_density_matrix,
)
from su4euler.errors import _shown
from su4euler.separability import classify_chunks, corner_angles, scan_angles

from conftest import fixed_spectrum_angles, random_states, same_columns, scan_columns


def random_density_matrix(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------- transpose

def transpose_a(rho):
    """rho^{T_A} = (rho^{T_B})^T; test_partial_transpose_explicit_layout
    pins it against the explicit block layout."""
    return partial_transpose(rho).swapaxes(-1, -2)


def test_partial_transpose_diagonal_fixed_point():
    d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.array_equal(transpose_a(d), d)
    assert np.array_equal(partial_transpose(d), d)


def test_partial_transpose_bell_eigenvalues(bell_projector):
    eigs = np.linalg.eigvalsh(partial_transpose(bell_projector))
    assert np.abs(np.sort(eigs) - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng)
    assert np.abs(partial_transpose(partial_transpose(rho)) - rho).max() < 1e-16
    assert np.abs(transpose_a(transpose_a(rho)) - rho).max() < 1e-16
    both = partial_transpose(transpose_a(rho))
    assert np.abs(both - rho.T).max() < 1e-16


def test_partial_transpose_explicit_layout():
    m = np.arange(16, dtype=complex).reshape(4, 4)
    ptb = partial_transpose(m)
    expected_b = np.array([[0, 4, 2, 6], [1, 5, 3, 7],
                           [8, 12, 10, 14], [9, 13, 11, 15]])
    assert np.array_equal(ptb, expected_b)
    pta = transpose_a(m)
    expected_a = np.array([[0, 1, 8, 9], [4, 5, 12, 13],
                           [2, 3, 10, 11], [6, 7, 14, 15]])
    assert np.array_equal(pta, expected_a)


def test_partial_transpose_spectra_coincide_between_subsystems():
    """rho^{T_A} = (rho^{T_B})^T, so the two transposes share their spectrum
    and d: transposing B, as classify does, decides the same verdicts.
    Checked on random density matrices, one 4096-state scan chunk and the
    2^15 corners."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho = random_density_matrix(rng)
        ea = np.linalg.eigvalsh(transpose_a(rho))
        eb = np.linalg.eigvalsh(partial_transpose(rho))
        assert np.abs(ea - eb).max() < 1e-12
    entangled = 0
    for alphas, thetas in [next(scan_angles(4096)), *corner_angles()]:
        rho = rho_full(alphas, thetas)
        pta, ptb = transpose_a(rho), partial_transpose(rho)
        da, db = char_poly_coeffs(pta).d, char_poly_coeffs(ptb).d
        assert np.array_equal(da < -1e-10, db < -1e-10)
        assert np.array_equal(abs(da) <= 1e-10, abs(db) <= 1e-10)
        assert np.abs(da - db).max() <= 1e-15
        la, lb = (np.linalg.eigvalsh(pt)[:, 0] for pt in (pta, ptb))
        assert np.abs(la - lb).max() <= 1e-14
        entangled += np.count_nonzero(db < -1e-10)
    assert entangled > 0


# ------------------------------------------------------- char poly / shift

def test_char_poly_maximally_mixed():
    coeffs = char_poly_coeffs(np.eye(4, dtype=complex) / 4.0)
    assert np.allclose(coeffs, (-1.0, 3.0 / 8.0, -1.0 / 16.0, 1.0 / 256.0),
                       atol=1e-15, rtol=0)


def test_char_poly_pure_state():
    coeffs = char_poly_coeffs(np.diag([1.0, 0, 0, 0]).astype(complex))
    assert np.allclose(coeffs, (-1.0, 0.0, 0.0, 0.0), atol=1e-15, rtol=0)


def test_char_poly_bell_partial_transpose(bell_projector):
    coeffs = char_poly_coeffs(partial_transpose(bell_projector))
    assert abs(coeffs.d - (-1.0 / 16.0)) < 1e-14


def test_char_poly_a_and_d_invariants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = random_density_matrix(rng)
        pt = partial_transpose(rho)
        coeffs = char_poly_coeffs(pt)
        assert abs(coeffs.a + 1.0) <= 1e-12
        assert abs(coeffs.d - np.linalg.det(pt).real) <= 1e-12


def test_char_poly_matches_sampled_determinant_expansion():
    # Independent route: sample det(M - x I) at five x values and solve the
    # Vandermonde system for the coefficients.
    rng = np.random.default_rng(3)
    xs = np.array([-0.7, -0.2, 0.15, 0.55, 1.1])
    vander = np.vander(xs, 5)  # columns x^4 ... x^0
    for _ in range(50):
        rho = random_density_matrix(rng)
        pt = partial_transpose(rho)
        dets = np.array([np.linalg.det(pt - x * np.eye(4)).real for x in xs])
        solved = np.linalg.solve(vander, dets)  # (1, a, b, c, d)
        coeffs = char_poly_coeffs(pt)
        assert np.abs(np.array(coeffs) - solved[1:]).max() <= 1e-11


def test_char_poly_stacked_input():
    rng = np.random.default_rng(4)
    stack = np.stack([random_density_matrix(rng) for _ in range(6)])
    batch = char_poly_coeffs(stack)
    for i in range(6):
        single = char_poly_coeffs(stack[i])
        assert abs(batch.d[i] - single.d) < 1e-15
        assert abs(batch.b[i] - single.b) < 1e-15


def test_depressed_quartic_examples():
    flat = depressed_quartic(CharPolyCoeffs(-1.0, 3.0 / 8.0, -1.0 / 16.0, 1.0 / 256.0))
    assert np.allclose(flat, (0.0, 0.0, 0.0), atol=1e-15)
    pure = depressed_quartic(CharPolyCoeffs(-1.0, 0.0, 0.0, 0.0))
    # Spectrum (1, 0, 0, 0) shifts to (3/4, -1/4, -1/4, -1/4), whose
    # expansion is t^4 - (3/8) t^2 - (1/8) t - 3/256.
    assert np.allclose(pure, (-3.0 / 8.0, -1.0 / 8.0, -3.0 / 256.0), atol=1e-15)
    expanded = np.polynomial.polynomial.polyfromroots([0.75, -0.25, -0.25, -0.25])
    assert np.allclose(expanded[:3], (pure.r, pure.q, pure.p), atol=1e-15)


@pytest.mark.parametrize("trace", [0.5, np.nan, np.inf, -np.inf],
                         ids=["half", "nan", "inf", "-inf"])
def test_depressed_quartic_requires_unit_trace(trace):
    with pytest.raises(ValueError, match="unit trace"):
        depressed_quartic(CharPolyCoeffs(-trace, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("scale", [1.0, 1e1, 1e2, 1e3, 1e4])
def test_depressed_quartic_matches_polynomial_composition(scale):
    # The shift identity: numpy's composition P(t + 1/4) must give
    # t^4 + p t^2 + q t + r to a bound relative to the coefficient size.
    # Known sets first: maximally mixed, pure, Bell partial transpose.
    known = [(3 / 8, -1 / 16, 1 / 256), (0.0, 0.0, 0.0), (0.0, 1 / 4, -1 / 16)]
    random_sets = scale * np.random.default_rng(17).standard_normal((400, 3))
    shift = Polynomial([0.25, 1.0])
    for b, c, d in [*known, *random_sets]:
        dq = depressed_quartic(CharPolyCoeffs(-1.0, b, c, d))
        composed = Polynomial([d, c, b, -1.0, 1.0])(shift).coef
        bound = 1e-14 * max(1.0, abs(b), abs(c), abs(d))
        assert np.abs(composed - [dq.r, dq.q, dq.p, 0.0, 1.0]).max() <= bound


def test_depressed_quartic_roots_shifted():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_density_matrix(rng)
        coeffs = char_poly_coeffs(partial_transpose(rho))
        dq = depressed_quartic(coeffs)
        lam_roots = np.sort(np.roots([1.0, *coeffs]).real)
        tau_roots = np.sort(np.roots([1.0, 0.0, *dq]).real) + 0.25
        assert np.abs(lam_roots - tau_roots).max() <= 1e-10


# ------------------------------------------------------------- resolvent

def test_resolvent_zero_polynomial():
    rr = resolvent_roots((0.0, 0.0, 0.0))
    assert rr.branch_valid
    assert max(abs(g) for g in rr.gammas) < 1e-12


def test_resolvent_triple_root_case():
    # Spectrum (1, 0, 0, 0): the resolvent has the triple root 1/4.
    dq = depressed_quartic(CharPolyCoeffs(-1.0, 0.0, 0.0, 0.0))
    rr = resolvent_roots(dq)
    assert rr.branch_valid
    for g in rr.gammas:
        assert abs(g - 0.25) < 1e-10


def test_resolvent_matches_companion_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_density_matrix(rng)
        dq = depressed_quartic(char_poly_coeffs(partial_transpose(rho)))
        p, q, r = dq
        oracle = np.sort(np.roots([1.0, 2.0 * p, p * p - 4.0 * r, -q * q]).real)
        rr = resolvent_roots(dq)
        assert rr.branch_valid
        ours = np.sort([g.real for g in rr.gammas])
        assert np.abs(ours - oracle).max() <= 1e-10


def test_resolvent_product_identity():
    for alphas, thetas, rho in random_states(seed=7, n=200):
        dq = depressed_quartic(char_poly_coeffs(partial_transpose(rho)))
        rr = resolvent_roots(dq)
        if not rr.branch_valid or abs(dq.q) < 1e-12:
            continue
        prod = np.prod([g.real for g in rr.gammas])
        assert abs(prod - dq.q**2) <= 1e-9 * dq.q**2


def test_eigenvalues_via_resolvent_flat_spectrum():
    eigs = eigenvalues_via_resolvent((0.0, 0.0, 0.0))
    assert np.abs(eigs - 0.25).max() < 1e-12


@pytest.mark.parametrize("dq", [
    # t^4 + 1: resolvent g^3 - 4g has the negative root -2.
    DepressedQuartic(0.0, 0.0, 1.0),
    DepressedQuartic(np.nan, 0.0, 0.0),
], ids=["negative-root", "nan"])
def test_eigenvalues_via_resolvent_invalid_branch_is_none(dq):
    assert not resolvent_roots(dq).branch_valid
    assert eigenvalues_via_resolvent(dq) is None


def test_eigenvalues_via_resolvent_bell(bell_projector):
    dq = depressed_quartic(char_poly_coeffs(partial_transpose(bell_projector)))
    eigs = np.sort(eigenvalues_via_resolvent(dq))
    assert np.abs(eigs - [-0.5, 0.5, 0.5, 0.5]).max() <= 1e-10


def test_eigenvalues_via_resolvent_vs_eigensolver():
    for alphas, thetas, rho in random_states(seed=8, n=300):
        pt = partial_transpose(rho)
        dq = depressed_quartic(char_poly_coeffs(pt))
        eigs = eigenvalues_via_resolvent(dq)
        if eigs is None:
            continue
        assert np.abs(np.sort(eigs) - np.linalg.eigvalsh(pt)).max() <= 1e-8


# ------------------------------------------------------------ d criterion

def test_is_entangled_maximally_mixed():
    verdict = is_entangled(np.eye(4, dtype=complex) / 4.0)
    assert not verdict.entangled
    assert abs(verdict.d_value - 1.0 / 256.0) < 1e-14
    assert verdict.negative_count == 0
    assert not verdict.boundary


def test_is_entangled_bell(bell_projector):
    verdict = is_entangled(bell_projector)
    assert verdict.entangled
    assert abs(verdict.d_value - (-1.0 / 16.0)) < 1e-14
    assert verdict.negative_count == 1
    assert abs(verdict.min_eigenvalue - (-0.5)) < 1e-12


def test_product_states_are_separable():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho_a = a @ a.conj().T
        rho_b = b @ b.conj().T
        rho = np.kron(rho_a / np.trace(rho_a), rho_b / np.trace(rho_b))
        verdict = is_entangled(rho)
        assert not verdict.entangled
        assert verdict.d_value >= -1e-12


def test_is_entangled_validates_input():
    with pytest.raises(ValidationError, match="trace"):
        is_entangled(np.eye(4, dtype=complex))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1
    with pytest.raises(ValidationError, match="hermiticity"):
        is_entangled(bad)
    with pytest.raises(ValidationError, match="positivity"):
        is_entangled(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match="shape"):
        validate_density_matrix(np.eye(3))


@pytest.mark.parametrize("row,col", [(0, 0), (0, 2)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_nonfinite_entries(row, col, value):
    rho = np.eye(4, dtype=complex) / 4.0
    rho[row, col] = value
    with pytest.raises(ValidationError, match="finiteness invariant violated"):
        is_entangled(rho)
    stack = np.stack([np.eye(4, dtype=complex) / 4.0, rho])
    with pytest.raises(ValidationError, match=r"finiteness.* at state \(1,\)"):
        validate_density_matrix(stack)


@pytest.mark.parametrize("tolerance", [-1.0, np.nan, np.inf, "x", True, False,
                                       0.0, 1e-3])
def test_classify_rejects_bad_tolerance(tolerance):
    # The verdict cut is fixed: no classifier takes a tolerance at all.
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    for call in (lambda: classify(rho, tolerance),
                 lambda: is_entangled(rho, tolerance),
                 lambda: scan(5, tolerance=tolerance),
                 lambda: corner_scan(tolerance),
                 lambda: classify_chunks(iter([]), tolerance)):
        with pytest.raises(TypeError):
            call()


def schmidt_state(b):
    """a|00> + b|11> with a = sqrt(1 - b^2), as a state vector."""
    return np.array([np.sqrt(1.0 - b * b), 0.0, 0.0, b], dtype=complex)


@pytest.mark.parametrize("b,d,entangled", [
    (3e-3, -8.1e-11, False),
    (3.3e-3, -1.1859e-10, True),
    (1e-5, -1e-20, False),
    (1e-6, -1e-24, False),
], ids=["inside-cut", "past-cut", "b=1e-5", "b=1e-6"])
def test_pure_state_against_the_fixed_cut(b, d, entangled):
    # a|00> + b|11>: the PT eigenvalues are a^2, b^2, ab, -ab, so d = -(ab)^4
    # is quartic in b.  |d| <= 1e-10 calls b = 3e-3 boundary, not entangled,
    # although its negative PT eigenvalue -ab = -3e-3 is far past the cut.
    # At b = 1e-5 and 1e-6, d lies far below the ~1e-17 rounding of a
    # trace-recursion determinant, which gets its sign or value wrong.
    psi = schmidt_state(b)
    verdict = is_entangled(np.outer(psi, psi.conj()))
    assert verdict.entangled is entangled
    assert verdict.boundary is not entangled
    assert verdict.negative_count == 1
    assert verdict.d_value < 0
    assert verdict.d_value == pytest.approx(d, rel=1e-3, abs=0.0)
    assert verdict.min_eigenvalue == pytest.approx(-b, rel=1e-3)


@pytest.mark.parametrize("b", [1e-5, 1e-6])
def test_pure_state_under_local_unitaries(b):
    # (uA x uB) conjugates rho^pt by the unitary uA x conj(uB), so the PT
    # spectrum, and with it the sign of d = -(ab)^4, does not move.
    rng = np.random.default_rng(17)
    su2 = range_profile("su2", "covering")

    def local():  # sample_haar_unitary embeds SU(2) in the top-left block
        return sample_haar_unitary(rng, su2)[:2, :2]

    for _ in range(100):
        u = np.kron(local(), local())
        psi = u @ schmidt_state(b)
        verdict = is_entangled(np.outer(psi, psi.conj()))
        assert verdict.boundary and not verdict.entangled
        assert verdict.negative_count == 1
        assert verdict.d_value < 0


def test_sign_agreement_with_eigensolver():
    for alphas, thetas, rho in random_states(seed=10, n=500):
        verdict = is_entangled(rho)
        assert verdict.negative_count <= 1
        # d comes from the same eigensolve as min_eigenvalue; the LU
        # determinant checks it independently.
        lu = np.linalg.det(partial_transpose(rho)).real
        assert abs(lu - verdict.d_value) <= 1e-12
        if abs(verdict.d_value) > 1e-10:
            assert verdict.entangled == (verdict.min_eigenvalue < -1e-10)
            assert verdict.entangled == (lu < 0)


def test_d_invariant_under_commuting_tail():
    from su4euler import compose_su4, rho_diagonal
    rng = np.random.default_rng(11)
    for _ in range(50):
        alphas = rng.uniform(0, np.pi, 12)
        theta = (1.0, 1.05, 1.25)
        base = is_entangled(rho_full(alphas, theta)).d_value
        tail = rng.uniform(0, 2 * np.pi, 3)
        u = compose_su4(np.concatenate([alphas, tail]))
        rho = u @ rho_diagonal(theta) @ u.conj().T
        assert abs(is_entangled(rho).d_value - base) <= 1e-13


# ------------------------------------------------------------------ scans

def test_scan_deterministic_and_ordered():
    a = scan_columns(scan(64, seed=5))
    b = scan_columns(scan(64, seed=5))
    assert same_columns(a, b)
    assert a.index.tolist() == list(range(64))
    c = scan_columns(scan(64, seed=6))
    assert not same_columns(c, a)


def test_scan_negative_count_bounded():
    assert set(scan_columns(scan(300, seed=12)).neg_count.tolist()) <= {0, 1}


def test_fixed_maximally_mixed_spectrum_is_separable():
    theta = (np.pi / 4, np.arccos(1 / np.sqrt(3)), np.pi / 3)
    columns = scan_columns(classify_chunks(fixed_spectrum_angles(20, 13, theta)))
    assert (columns.thetas == theta).all()
    # Maximally mixed is unitarily invariant: always separable.
    assert not columns.entangled.any()
    assert np.abs(columns.d - 1.0 / 256.0).max() < 1e-13


def test_scan_covering_profile():
    # The conjugation angles fill the covering ranges, which reach past the
    # volume ranges on a3, a5 and a9.
    columns = scan_columns(scan(200, seed=14))
    covering = range_profile("su4", "covering").lengths()[:12]
    volume = range_profile("su4", "volume").lengths()[:12]
    assert ((columns.alphas >= 0.0) & (columns.alphas <= covering)).all()
    wider = covering > volume
    assert (columns.alphas[:, wider].max(axis=0) > volume[wider]).all()
    assert columns.neg_count.max() <= 1


def test_scan_states_average_to_maximally_mixed():
    # Over Haar V, E[V rho_d V^dagger] = tr(rho_d) I / 4 = I / 4 entry by
    # entry.  Conjugations drawn over the volume ranges miss it by up to
    # 0.044 off the diagonal, ~78 standard errors at this size.
    n = 20_000
    rho = np.concatenate([rho_full(a, t) for a, t in
                          fixed_spectrum_angles(n, 5, (1.0, 1.2, 1.4))])
    mean = rho.mean(axis=0)
    standard_error = np.sqrt(np.mean(abs(rho - mean) ** 2, axis=0) / n)
    assert (abs(mean - np.eye(4) / 4.0) <= 5.0 * standard_error).all()


def test_scan_validation():
    # Every argument is checked at the call, before a chunk is requested.
    with pytest.raises(ValueError):
        scan(0)
    with pytest.raises(ValueError, match="seed"):
        scan(10, seed=-1)
    # Deleted arguments raise TypeError rather than being ignored.
    with pytest.raises(TypeError, match="angle_profile"):
        scan(10, angle_profile="covering")
    with pytest.raises(TypeError, match="workers"):
        scan(10, workers=2)
    with pytest.raises(TypeError, match="spectrum_policy"):
        scan(10, spectrum_policy=(1.0, 1.2, 1.4))
    with pytest.raises(TypeError, match="positional"):
        partial_transpose(np.eye(4), "A")


@pytest.mark.parametrize("call,error,name", [
    (lambda: scan_angles(0), ValueError, "samples"),
    (lambda: scan_angles(10, seed=-1), ValueError, "seed"),
    (lambda: scan_angles(10, seed="x" * 300), ValueError, "seed"),
    (lambda: scan(10, seed=""), ValueError, "seed.* got ''$"),
    # A range name as the third positional argument, which once named the
    # angle ranges: scan takes two, so the call itself is refused.
    (lambda: scan(10, 1, "covering"), TypeError, "positional"),
], ids=["samples", "seed", "seed-long-string", "seed-empty-string", "profile"])
def test_scan_parts_check_arguments_at_the_call(call, error, name):
    with pytest.raises(error, match=name) as raised:
        call()
    # The rejected value is echoed cut short, not whole.
    assert len(str(raised.value)) < 200


def test_seed_past_the_int_digit_limit_is_named():
    # repr refuses an int of more than 4300 digits by default.
    with pytest.raises(ValueError, match="seed") as raised:
        scan_angles(2, seed=-10**5000)
    assert len(str(raised.value)) <= 80
    assert _shown(10**5000) == "<int of 16610 bits>"


def test_scan_records_reproduce_d():
    columns = scan_columns(scan(40, seed=15))
    for i in range(40):
        verdict = is_entangled(rho_full(columns.alphas[i], columns.thetas[i]))
        assert abs(verdict.d_value - columns.d[i]) <= 1e-15


def test_corner_scan_consistent_with_direct_classification():
    columns = scan_columns(corner_scan())
    assert columns.index.tolist() == list(range(2**15))
    rng = np.random.default_rng(16)
    for idx in rng.integers(0, 2**15, size=25):
        alphas = columns.alphas[idx]
        verdict = is_entangled(rho_full(alphas, columns.thetas[idx]))
        assert abs(verdict.d_value - columns.d[idx]) <= 1e-13
        assert verdict.entangled == columns.entangled[idx]
        # Bit b of the index selects the upper endpoint of parameter b.
        for b in range(12):
            expects_hi = (idx >> b) & 1
            assert (alphas[b] > 0.0) == bool(expects_hi)
