import math

import numpy as np
import pytest

from maxent.entanglement import (
    LN2,
    apply_local_unitaries,
    commutator_defect,
    constraint_check,
    criterion_check,
    reduced_entropy,
    schmidt_coefficients,
    site_marginals,
    trace_invariant,
)
from maxent.linalg import partial_trace_single_site
from maxent.measurement import AXES, local_expectation, local_expectations
from maxent.search import (
    generate_constrained,
    haar_random_state,
    haar_random_su2,
    random_constraint_params,
)
from maxent.states import (
    as_coefficient_matrix,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
    schmidt_state,
)

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL = epr_family("varphi", 0.0)


def _bloch_density(state, site):
    """Site marginal (I + b.sigma)/2 from its row b of local_expectations."""
    x, y, z = local_expectations(state)[site - 1]
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def test_reduced_density_examples():
    assert np.allclose(_bloch_density(BELL, 1), np.eye(2) / 2, atol=1e-12)
    product = from_amplitudes([0.0, 1.0, 0.0, 0.0])  # |+->
    assert np.allclose(_bloch_density(product, 2), [[0, 0], [0, 1]], atol=1e-15)
    bal = example_state("two_qubit_balanced")
    assert np.allclose(_bloch_density(bal, 1), np.eye(2) / 2, atol=1e-12)


def test_reduced_density_rejects_out_of_range_site():
    for site in (0, 3, -1):
        with pytest.raises(ValueError, match=r"site must be in \[1, 2\]"):
            commutator_defect(BELL, site)
    with pytest.raises(ValueError, match=r"site must be in \[1, 3\]"):
        reduced_entropy(ghz("+"), 4)


def test_reduced_density_matches_oracle_on_random_states():
    for n in (2, 3, 4):
        st = haar_random_state(n, seed=n)
        for site in range(1, n + 1):
            want = oracles.partial_trace_loops(st.amplitudes, n, site)
            assert np.allclose(_bloch_density(st, site), want, atol=1e-13)


def test_reduced_density_matches_the_partial_trace_route():
    # the Bloch route (I + b.sigma)/2 against the einsum partial trace
    for n in range(1, 9):
        st = haar_random_state(n, seed=10 + n)
        for site in range(1, n + 1):
            want = partial_trace_single_site(st.amplitudes, n, site)
            assert np.max(np.abs(_bloch_density(st, site) - want)) <= 1e-14


def test_site_marginals_match_oracles_on_haar_states():
    for n in range(1, 9):
        for seed in range(3):
            st = haar_random_state(n, seed=100 * n + seed)
            eigenvalues, entropies, defects = site_marginals(local_expectations(st))
            assert eigenvalues.shape == (n, 2)
            assert entropies.shape == defects.shape == (n,)
            for site in range(1, n + 1):
                rho = oracles.partial_trace_loops(st.amplitudes, n, site)
                lams = oracles.density_eigenvalues(rho)
                assert np.max(np.abs(eigenvalues[site - 1] - lams)) <= 1e-12
                assert abs(entropies[site - 1] - oracles.entropy_of_density(rho)) <= 1e-12
                want = max(oracles.commutator_frobenius(rho, axis) for axis in AXES)
                assert abs(defects[site - 1] - want) <= 1e-12


def test_site_marginals_of_ghz_and_product_states():
    for n in range(2, 9):
        amps = np.zeros(1 << n)
        amps[0] = amps[-1] = 1.0
        eigenvalues, entropies, defects = site_marginals(local_expectations(from_amplitudes(amps)))
        assert np.max(np.abs(eigenvalues - 0.5)) <= 1e-15
        assert np.max(np.abs(entropies - LN2)) <= 1e-15
        assert np.max(defects) <= 1e-15
        amps[-1] = 0.0
        eigenvalues, entropies, defects = site_marginals(local_expectations(from_amplitudes(amps)))
        assert np.array_equal(eigenvalues, np.tile([1.0, 0.0], (n, 1)))
        assert np.array_equal(entropies, np.zeros(n))
        assert np.array_equal(defects, np.full(n, math.sqrt(2.0)))


def test_site_marginals_clamp_rounding_and_reject_unphysical_vectors():
    eigenvalues, entropies, defects = site_marginals([[0.0, 0.0, 1.0 + 1e-13]])
    assert eigenvalues.tolist() == [[1.0, 0.0]] and entropies.tolist() == [0.0]
    with pytest.raises(ValueError, match="negative beyond rounding"):
        site_marginals([[0.0, 0.0, 0.0], [0.6, 0.0, 0.9]])


def test_two_qubit_marginals_share_the_coefficient_matrix_spectrum():
    # rho_1 = A A^dagger and rho_2 = (A^dagger A)^T for the coefficient matrix A
    for seed in range(50):
        st = haar_random_state(2, seed)
        a = as_coefficient_matrix(st)
        for site, gram in ((1, a @ a.conj().T), (2, a.conj().T @ a)):
            traced = oracles.density_eigenvalues(_bloch_density(st, site))
            direct = oracles.density_eigenvalues(gram)
            assert max(abs(d - t) for d, t in zip(direct, traced)) <= 1e-12


def test_reduced_entropy_examples():
    rep = reduced_entropy(BELL, 1)
    assert rep.entropy_nats == pytest.approx(LN2, abs=1e-12)
    assert rep.eigenvalues == pytest.approx((0.5, 0.5), abs=1e-12)
    plus = from_amplitudes([1.0, 0, 0, 0])
    assert reduced_entropy(plus, 1).entropy_nats == 0.0
    skew = schmidt_state(0.6, 0.8)
    assert reduced_entropy(skew, 1).entropy_nats == pytest.approx(
        oracles.binary_entropy(0.36), abs=1e-12
    )


def test_reduced_entropy_bounds_on_random_states():
    for seed in range(30):
        st = haar_random_state(3, seed)
        for site in (1, 2, 3):
            rep = reduced_entropy(st, site)
            assert 0.0 <= rep.entropy_nats <= LN2 + 1e-12
            assert sum(rep.eigenvalues) == pytest.approx(1.0, abs=1e-12)
            want = oracles.entropy_of_density(
                oracles.partial_trace_loops(st.amplitudes, 3, site)
            )
            assert rep.entropy_nats == pytest.approx(want, abs=1e-11)


def test_criterion_check_reports_the_kernel_entries():
    for n in range(1, 9):
        st = haar_random_state(n, seed=40 + n)
        e = local_expectations(st)
        rep = criterion_check(st, 1e-9)
        assert rep.expectations == tuple(map(tuple, e.tolist()))
        assert all(
            type(rep.expectations[site - 1][axis - 1]) is float
            and rep.expectations[site - 1][axis - 1] == e[site - 1, axis - 1]
            for site in range(1, n + 1)
            for axis in AXES
        )
        assert rep == criterion_check(st, 1e-9)
        assert rep.max_abs_expectation == np.max(np.abs(e))


def test_criterion_check_examples():
    assert criterion_check(BELL, 1e-9).satisfied
    plus = from_amplitudes([1.0, 0, 0, 0])
    rep = criterion_check(plus, 1e-9)
    assert not rep.satisfied
    assert rep.max_abs_expectation == pytest.approx(1.0, abs=1e-15)
    assert criterion_check(ghz("+"), 1e-9).satisfied
    assert criterion_check(example_state("three_qubit_balanced"), 1e-12).satisfied
    assert [len(row) for row in rep.expectations] == [3, 3]
    for site, row in enumerate(rep.expectations, start=1):
        for axis, value in zip(AXES, row):
            assert value == pytest.approx(
                oracles.expectation(plus.amplitudes, 2, site, axis), abs=1e-13
            )
    with pytest.raises(ValueError):
        criterion_check(BELL, 0.0)


@pytest.mark.parametrize("tol", [math.nan, -math.inf, -1e-9])
def test_tolerances_must_be_positive_numbers(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        criterion_check(BELL, tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        constraint_check(as_coefficient_matrix(BELL), tol)


def test_constraint_check_examples():
    a = np.array([[1j, 1.0], [1.0, 1j]]) / 2
    rep = constraint_check(a)
    assert rep.satisfied and not rep.degenerate
    assert max(rep.modulus_residuals) < 1e-15
    assert rep.phase_residual < 1e-15

    diag = np.diag([INV_SQRT2, INV_SQRT2])
    rep = constraint_check(diag)
    assert rep.satisfied and rep.degenerate

    bad = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = constraint_check(bad)
    assert not rep.satisfied
    assert rep.modulus_residuals[0] == pytest.approx(0.5, abs=1e-15)


def test_constraint_check_accepts_minus_pi_branch():
    a = np.array([[-1j, 1.0], [1.0, -1j]]) / 2  # phase sum -pi
    rep = constraint_check(a)
    assert rep.satisfied and rep.phase_residual < 1e-15


def test_constraint_check_phase_residual_at_the_fold():
    # real equal entries: the phase sum is 0, so phase_sum - pi is exactly -pi
    rep = constraint_check(np.full((2, 2), 0.5))
    assert rep.phase_residual == math.pi and not rep.satisfied
    rep = constraint_check(np.array([[0.5, 0.5], [0.5, -0.5]]))
    assert rep.phase_residual == 0.0 and rep.satisfied


def test_constraint_check_rejects_bad_input():
    with pytest.raises(ValueError):
        constraint_check(np.eye(2))  # norm sqrt(2)
    with pytest.raises(ValueError):
        constraint_check(np.eye(3) / math.sqrt(3.0))
    with pytest.raises(ValueError):
        constraint_check(np.diag([INV_SQRT2, INV_SQRT2]), tolerance=0.0)


def test_equivalence_both_directions():
    rng = np.random.default_rng(20)
    for k in range(50):
        good = generate_constrained(random_constraint_params(k))
        assert criterion_check(good, 1e-9).satisfied
        assert constraint_check(as_coefficient_matrix(good)).satisfied
        for site in (1, 2):
            assert abs(reduced_entropy(good, site).entropy_nats - LN2) < 1e-9
            assert np.allclose(_bloch_density(good, site), np.eye(2) / 2, atol=1e-9)
        # static noise breaks every certificate at the same time
        noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bad = from_amplitudes(good.amplitudes + 0.05 * noise / np.linalg.norm(noise))
        checks = [
            criterion_check(bad, 1e-9).satisfied,
            constraint_check(as_coefficient_matrix(bad)).satisfied,
            all(abs(reduced_entropy(bad, s).entropy_nats - LN2) <= 1e-9 for s in (1, 2)),
            all(
                np.allclose(_bloch_density(bad, s), np.eye(2) / 2, atol=1e-9)
                for s in (1, 2)
            ),
        ]
        assert len(set(checks)) == 1  # all four certificates agree


def test_schmidt_coefficients():
    assert schmidt_coefficients(BELL) == pytest.approx((INV_SQRT2, INV_SQRT2), abs=1e-12)
    plus = from_amplitudes([1.0, 0, 0, 0])
    assert schmidt_coefficients(plus) == pytest.approx((1.0, 0.0), abs=1e-12)
    bal = example_state("two_qubit_balanced")
    assert schmidt_coefficients(bal) == pytest.approx((INV_SQRT2, INV_SQRT2), abs=1e-12)
    for seed in range(20):
        st = haar_random_state(2, seed)
        got = schmidt_coefficients(st)
        a = as_coefficient_matrix(st)
        want = np.linalg.svd(a, compute_uv=False)
        assert got == pytest.approx(tuple(want), abs=1e-12)
        lams = oracles.density_eigenvalues(oracles.partial_trace_loops(st.amplitudes, 2, 1))
        assert (got[0] ** 2, got[1] ** 2) == pytest.approx(tuple(lams), abs=1e-12)
    # Locally rotated states whose Schmidt spectrum splits by at most 1e-13.
    rng = np.random.default_rng(5)
    for seed in range(50):
        half_split = rng.uniform(0.0, 5e-14)
        flat = schmidt_state(math.sqrt(0.5 + half_split), math.sqrt(0.5 - half_split))
        st = apply_local_unitaries(flat, [haar_random_su2(2 * seed), haar_random_su2(2 * seed + 1)])
        want = np.linalg.svd(as_coefficient_matrix(st), compute_uv=False)
        assert np.allclose(schmidt_coefficients(st), want, rtol=0.0, atol=1e-15)


def test_commutator_defect_examples():
    assert commutator_defect(BELL, 1) < 1e-15
    plus = from_amplitudes([1.0, 0, 0, 0])
    # rho = diag(1, 0); the largest Frobenius commutator norm is sqrt(2)
    want = max(
        oracles.commutator_frobenius(np.diag([1.0, 0.0]).astype(complex), axis)
        for axis in AXES
    )
    assert want == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert commutator_defect(plus, 1) == pytest.approx(want, abs=1e-12)
    assert commutator_defect(example_state("three_qubit_balanced"), 2) < 1e-12


def test_commutator_defect_vanishes_with_criterion():
    for k in range(30):
        st = generate_constrained(random_constraint_params(k))
        assert criterion_check(st, 1e-10).satisfied
        for site in (1, 2):
            assert commutator_defect(st, site) < 1e-9


def test_commutator_defect_matches_oracle_on_random_states():
    for seed in range(10):
        st = haar_random_state(3, seed)
        for site in (1, 2, 3):
            rho = oracles.partial_trace_loops(st.amplitudes, 3, site)
            want = max(oracles.commutator_frobenius(rho, axis) for axis in AXES)
            assert commutator_defect(st, site) == pytest.approx(want, abs=1e-12)


def test_apply_local_unitaries_basics():
    st = example_state("two_qubit_balanced")
    same = apply_local_unitaries(st, [np.eye(2), np.eye(2)])
    assert np.allclose(same.amplitudes, st.amplitudes, atol=1e-15)

    plus = from_amplitudes([1.0, 0, 0, 0])
    flipped = apply_local_unitaries(plus, [oracles.SIGMA[1], np.eye(2)])
    assert np.allclose(flipped.amplitudes, [0, 0, 1.0, 0], atol=1e-15)  # |-+>

    with pytest.raises(ValueError):
        apply_local_unitaries(plus, [np.eye(2)])
    with pytest.raises(ValueError, match=r"^factor 2 must be 2x2, got \(4,\)$"):
        apply_local_unitaries(plus, [np.eye(2), np.ones(4)])
    with pytest.raises(ValueError):
        apply_local_unitaries(plus, [np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(ValueError, match="factor 2 is not unitary"):
        apply_local_unitaries(plus, [np.eye(2), np.full((2, 2), np.nan)])


def test_bell_invariant_under_g_conjugate_g():
    for seed in range(10):
        g = haar_random_su2(seed)
        moved = apply_local_unitaries(BELL, [g, g.conj()])
        overlap = abs(np.vdot(moved.amplitudes, BELL.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_coefficient_matrix_transformation_identity():
    # The matrix shorthand A -> u1 A u2^T reproduces the direct vector action.
    rng = np.random.default_rng(30)
    for seed in range(10):
        st = haar_random_state(2, seed)
        u1, u2 = haar_random_su2(2 * seed), haar_random_su2(2 * seed + 1)
        moved = apply_local_unitaries(st, [u1, u2])
        shorthand = u1 @ as_coefficient_matrix(st) @ u2.T
        assert np.allclose(as_coefficient_matrix(moved), shorthand, atol=1e-12)


def test_local_unitaries_preserve_certificates():
    for seed in range(20):
        st = haar_random_state(2, seed)
        us = [haar_random_su2(3 * seed), haar_random_su2(3 * seed + 1)]
        moved = apply_local_unitaries(st, us)
        for site in (1, 2):
            assert abs(
                reduced_entropy(st, site).entropy_nats
                - reduced_entropy(moved, site).entropy_nats
            ) < 1e-9
        assert schmidt_coefficients(st) == pytest.approx(
            schmidt_coefficients(moved), abs=1e-9
        )
        assert criterion_check(st, 1e-9).satisfied == criterion_check(moved, 1e-9).satisfied
        assert abs(trace_invariant(st) - trace_invariant(moved)) < 1e-9


def test_trace_invariant():
    assert trace_invariant(BELL) == pytest.approx(1.0, abs=1e-12)
    for seed in range(5):
        st = haar_random_state(2, seed)
        assert trace_invariant(st) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        trace_invariant(ghz("+"))


def test_entropy_expectation_coupling_bound():
    for seed in range(500):
        st = haar_random_state(2, seed)
        for site in (1, 2):
            b2 = sum(local_expectation(st, site, axis) ** 2 for axis in AXES)
            slack = LN2 - reduced_entropy(st, site).entropy_nats - b2 / 2
            assert slack >= -1e-12


def test_three_qubit_criterion_states_have_ln2_entropies():
    for st in (ghz("+"), ghz("-"), example_state("three_qubit_balanced")):
        assert criterion_check(st, 1e-12).satisfied
        for site in (1, 2, 3):
            assert abs(reduced_entropy(st, site).entropy_nats - LN2) < 1e-9
