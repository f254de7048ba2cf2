"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS] line on success; a failure shows up as the
pytest FAILED line for that criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import subprocess
import sys
import time

import numpy as np

import su4euler as s

from conftest import random_states
from test_algebra import TABLE_KK, TABLE_PP, TABLE_KP, table_matrix


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_group_volumes():
    budgets = {"su2": 1e-12, "su3": 1e-10, "su4": 1e-10}
    for group, tol in budgets.items():
        start = time.perf_counter()
        result = s.group_volume(group, "quadrature", 64)
        elapsed = time.perf_counter() - start
        target = s.analytic_volume(group)
        rel = abs(result.estimate - target) / target
        assert rel <= tol, (group, rel)
        assert elapsed < 1.0, (group, elapsed)
    _report(1, "quadrature volumes 2*pi^2, sqrt(3)*pi^5, sqrt(2)*pi^9/3 "
               "within stated relative errors, under 1 s each")


def test_criterion_02_haar_identity():
    profile = s.range_profile("su4", "volume")
    rng = np.random.default_rng(1000)
    points = profile.lengths() * rng.random((1000, 15))
    start = time.perf_counter()
    worst = 0.0
    for point in points:
        det = abs(np.linalg.det(s.one_form_matrix(point)))
        density = s.haar_density(point)
        worst = max(worst, abs(det - density) / density)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, worst
    assert elapsed < 60.0, elapsed
    _report(2, f"|det(one-form)| = closed-form density at 1000 points "
               f"(worst rel {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_03_commutator_tables():
    f = s.structure_constants()
    lam = s.gell_mann_stack()
    checked = 0
    for table in (TABLE_KK, TABLE_PP, TABLE_KP):
        for (i, j), entry in table.items():
            rebuilt = 2j * np.einsum("k,kab->ab", f[i - 1, j - 1], lam)
            assert np.abs(rebuilt - table_matrix(entry)).max() <= 1e-13, (i, j)
            rebuilt_ji = 2j * np.einsum("k,kab->ab", f[j - 1, i - 1], lam)
            assert np.abs(rebuilt_ji + table_matrix(entry)).max() <= 1e-13, (j, i)
            checked += 2
    _report(3, f"all three commutator tables reproduced entrywise <= 1e-13 "
               f"({checked} oriented entries)")


def test_criterion_04_special_unitarity():
    rng = np.random.default_rng(41)
    profile = s.range_profile("su4", "covering")
    eye = np.eye(4)
    worst_u = 0.0
    worst_d = 0.0
    for _ in range(10_000):
        u = s.sample_haar_unitary(rng, profile)
        worst_u = max(worst_u, np.abs(u.conj().T @ u - eye).max())
        worst_d = max(worst_d, abs(np.linalg.det(u) - 1.0))
    assert worst_u <= 1e-12, worst_u
    assert worst_d <= 1e-12, worst_d
    _report(4, f"10^4 Haar samples special-unitary "
               f"(worst unitarity {worst_u:.2e}, worst det {worst_d:.2e})")


def test_criterion_05_spectrum_preservation():
    worst = 0.0
    for alphas, thetas, rho in random_states(seed=51, n=10_000):
        eigs = np.linalg.eigvalsh(rho)
        expected = np.sort(s.spectrum_diagonal(thetas))
        worst = max(worst, np.abs(eigs - expected).max())
    assert worst <= 1e-12, worst
    _report(5, f"10^4 conjugations preserve the spectrum as a multiset "
               f"(worst deviation {worst:.2e})")


def test_criterion_06_d_criterion_vs_oracle():
    mismatches = 0
    decided = 0
    worst_neg = 0
    worst_lu = 0.0
    for alphas, thetas, rho in random_states(seed=61, n=10_000):
        verdict = s.is_entangled(rho)
        worst_neg = max(worst_neg, verdict.negative_count)
        # d is the product of the eigenvalues min_eigenvalue comes from;
        # the LU determinant is an oracle independent of that eigensolve.
        lu = np.linalg.det(s.partial_transpose(rho)).real
        worst_lu = max(worst_lu, abs(lu - verdict.d_value))
        if abs(verdict.d_value) > 1e-10:
            decided += 1
            if verdict.entangled != (verdict.min_eigenvalue < -1e-10):
                mismatches += 1
            if verdict.entangled != (lu < 0):
                mismatches += 1
    assert mismatches == 0, mismatches
    assert worst_neg <= 1
    assert worst_lu <= 1e-12, worst_lu
    _report(6, f"sign-of-d verdict matches min-eigenvalue and LU-determinant "
               f"verdicts on all {decided} decided states (|d - det| <= "
               f"{worst_lu:.1e}); negative count <= 1 everywhere")


def test_criterion_07_corner_claim():
    start = time.perf_counter()
    columns = [c for _, _, _, c in s.corner_scan()]
    elapsed = time.perf_counter() - start
    assert sum(len(c.d) for c in columns) == 2**15
    entangled = sum(int(c.entangled.sum()) for c in columns)
    assert entangled == 0, entangled
    assert max(int(c.neg_count.max()) for c in columns) <= 1
    assert elapsed < 60.0, elapsed
    _report(7, f"all 2^15 parameter corners separable ({elapsed:.1f} s)")


def test_criterion_08_known_state_values():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    verdict = s.is_entangled(bell)
    assert abs(verdict.d_value - (-1.0 / 16.0)) <= 1e-10
    pt_eigs = np.linalg.eigvalsh(s.partial_transpose(bell))
    assert np.abs(np.sort(pt_eigs) - [-0.5, 0.5, 0.5, 0.5]).max() <= 1e-10
    assert abs(np.prod(pt_eigs) - verdict.d_value) <= 1e-12  # oracle route
    lu = np.linalg.det(s.partial_transpose(bell)).real  # independent of eigvalsh
    assert abs(lu - verdict.d_value) <= 1e-12
    mixed = s.is_entangled(np.eye(4, dtype=complex) / 4.0)
    assert abs(mixed.d_value - 1.0 / 256.0) <= 1e-10
    assert not mixed.entangled and verdict.entangled
    _report(8, "Bell projector d = -1/16 with PT spectrum {1/2,1/2,1/2,-1/2}; "
               "maximally mixed d = 1/256")


def test_criterion_09_resolvent_path():
    checked = 0
    worst_eig = 0.0
    worst_prod = 0.0
    for alphas, thetas, rho in random_states(seed=91, n=1000):
        pt = s.partial_transpose(rho)
        dq = s.depressed_quartic(s.char_poly_coeffs(pt))
        roots = s.resolvent_roots(dq)
        if not roots.branch_valid:
            # Failures are tolerated only next to a resolvent-root
            # multiplicity, checked from the eigensolver's root sums.
            tau = np.linalg.eigvalsh(pt) - 0.25
            oracle = np.sort([(tau[0] + tau[j]) ** 2 for j in (1, 2, 3)])
            gap = min(np.diff(oracle).min(), oracle.min())
            assert gap <= 1e-8, gap
            continue
        checked += 1
        eigs = np.sort(s.eigenvalues_via_resolvent(dq))
        worst_eig = max(worst_eig, np.abs(eigs - np.linalg.eigvalsh(pt)).max())
        if abs(dq.q) > 1e-12:
            prod = np.prod([g.real for g in roots.gammas])
            worst_prod = max(worst_prod, abs(prod - dq.q**2) / dq.q**2)
    assert checked >= 990  # branch failures allowed only near multiplicities
    assert worst_eig <= 1e-8, worst_eig
    assert worst_prod <= 1e-9, worst_prod
    _report(9, f"radical eigenvalues match the eigensolver on {checked} states "
               f"(worst {worst_eig:.2e}); gamma product identity rel {worst_prod:.2e}")


def test_criterion_10_cli_determinism():
    commands = [
        ("basis", "--structure"),
        ("volume", "--group", "su4", "--method", "quad", "--nodes", "64"),
        ("volume", "--group", "su3", "--method", "mc", "--samples", "2e4",
         "--seed", "7"),
        ("check", "--alpha", ",".join(["0"] * 12),
         "--theta", "pi/4, acos(1/sqrt(3)), pi/3"),
        ("scan", "--samples", "100", "--seed", "3"),
        ("rho", "--alpha", ",".join(["0"] * 12), "--theta", "pi/2,pi/2,pi/2"),
    ]
    for command in commands:
        first = subprocess.run([sys.executable, "-m", "su4euler", *command],
                               capture_output=True, timeout=300)
        second = subprocess.run([sys.executable, "-m", "su4euler", *command],
                                capture_output=True, timeout=300)
        assert first.returncode == 0, command
        assert first.stdout == second.stdout, command
        assert first.stderr == second.stderr, command
    _report(10, f"{len(commands)} CLI invocations byte-identical on repeat")
