import math

import numpy as np
import pytest

from maxent.entanglement import (
    LN2,
    constraint_check,
    criterion_check,
    reduced_density,
    reduced_entropy,
)
from maxent.search import (
    ConstraintParams,
    SearchOutcome,
    _residuals_jacobian,
    cost,
    cost_gradient_raw,
    cost_raw,
    generate_constrained,
    haar_random_state,
    haar_random_su2,
    multi_start,
    optimize,
    random_constraint_params,
)
from maxent.states import (
    as_coefficient_matrix,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
)

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_constraint_params_invariants():
    p = ConstraintParams(r=0.3, alpha=1.0, beta=2.0, delta=3.0)
    assert p.s == pytest.approx(math.sqrt(0.5 - 0.09), abs=1e-15)
    gamma = p.gamma
    want = math.pi + 2.0 + 3.0 - 1.0
    assert math.remainder(gamma - want, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ConstraintParams(r=-0.1)
    with pytest.raises(ValueError):
        ConstraintParams(r=0.8)
    with pytest.raises(ValueError):
        ConstraintParams(r=0.3, branch=2.0)
    # both branch signs are legal and give the same state mod 2 pi
    a = generate_constrained(ConstraintParams(r=0.3, branch=math.pi))
    b = generate_constrained(ConstraintParams(r=0.3, branch=-math.pi))
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-15)


def test_generate_constrained_reproduces_balanced_example():
    st = generate_constrained(
        ConstraintParams(r=0.5, alpha=math.pi / 2, beta=0.0, delta=0.0)
    )
    want = example_state("two_qubit_balanced").amplitudes
    assert np.allclose(st.amplitudes, want, atol=1e-15)


def test_generate_constrained_degenerate_corners():
    # r = 1/sqrt(2): diagonal (varphi) family, exact zero off-diagonals
    st = generate_constrained(ConstraintParams(r=INV_SQRT2, alpha=0.0))
    assert st.amplitudes[1] == 0.0 and st.amplitudes[2] == 0.0
    assert abs(st.amplitudes[0]) == pytest.approx(INV_SQRT2, abs=1e-12)
    # r = 0: antidiagonal (psi) family
    st = generate_constrained(ConstraintParams(r=0.0, beta=0.4, delta=1.3))
    assert st.amplitudes[0] == 0.0 and st.amplitudes[3] == 0.0
    assert abs(st.amplitudes[1]) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_generate_constrained_satisfies_both_certificates():
    for seed in range(300):
        st = generate_constrained(random_constraint_params(seed))
        assert criterion_check(st, 1e-12).satisfied
        assert constraint_check(as_coefficient_matrix(st), 1e-9).satisfied


def test_random_constraint_params_deterministic():
    a = random_constraint_params(11)
    b = random_constraint_params(11)
    assert (a.r, a.alpha, a.beta, a.delta) == (b.r, b.alpha, b.beta, b.delta)
    assert 0.0 <= a.r <= INV_SQRT2 + 1e-12


def test_haar_random_state_contract():
    st = haar_random_state(3, 5)
    assert st.n_qubits == 3
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    again = haar_random_state(3, 5)
    assert np.array_equal(st.amplitudes, again.amplitudes)
    with pytest.raises(ValueError):
        haar_random_state(0, 1)
    with pytest.raises(ValueError):
        haar_random_state(9, 1)


def test_haar_random_states_average_below_max_entropy():
    total = 0.0
    samples = 2000
    for seed in range(samples):
        total += reduced_entropy(haar_random_state(2, seed), 1).entropy_nats
    assert total / samples <= LN2 - 0.05


def test_haar_random_su2_contract():
    rng = np.random.default_rng(40)
    acc = 0.0
    samples = 100_000
    for _ in range(samples):
        u = haar_random_su2(rng)
        acc += abs(u[0, 0]) ** 2
    assert acc / samples == pytest.approx(0.5, abs=0.005)
    for seed in range(20):
        u = haar_random_su2(seed)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
    assert np.array_equal(haar_random_su2(3), haar_random_su2(3))


def test_cost_examples_and_oracle():
    assert cost(epr_family("varphi", 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert cost(from_amplitudes([1.0, 0, 0, 0])) == pytest.approx(2.0, abs=1e-15)
    assert cost(ghz("+")) == pytest.approx(0.0, abs=1e-15)
    for seed in range(10):
        st = haar_random_state(3, seed)
        assert cost(st) == pytest.approx(
            oracles.cost_sum(st.amplitudes, 3), abs=1e-12
        )


def test_cost_global_phase_invariance():
    for seed in range(10):
        st = haar_random_state(2, seed)
        rotated = st.amplitudes * np.exp(0.7j)
        assert abs(cost_raw(rotated, 2) - cost(st)) < 1e-12


def test_gradient_matches_central_differences():
    # also probes unnormalized inputs: the Rayleigh form must stay smooth
    rng = np.random.default_rng(41)
    step = 1e-6
    for n in (2, 3):
        for scale in (1.0, 0.7, 1.3):
            z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            psi = scale * z / np.linalg.norm(z)
            grad = cost_gradient_raw(psi, n)
            fd = np.zeros_like(grad)
            for j in range(psi.size):
                for unit in (1.0, 1.0j):
                    bump = np.zeros_like(psi)
                    bump[j] = unit * step
                    diff = (cost_raw(psi + bump, n) - cost_raw(psi - bump, n)) / (
                        2.0 * step
                    )
                    fd[j] += unit * diff
            rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
            assert rel <= 1e-4


def test_optimize_already_optimal():
    out = optimize(epr_family("varphi", 0.0), tol=1e-12)
    assert out.converged and out.iterations == 0
    assert out.final_cost == pytest.approx(0.0, abs=1e-15)


def test_optimize_escapes_exact_critical_point():
    # |++> has exactly zero gradient; only the random kicks can leave it
    out = optimize(from_amplitudes([1.0, 0, 0, 0]), tol=1e-12, seed=2)
    assert out.converged
    for site in (1, 2):
        assert abs(reduced_entropy(out.state, site).entropy_nats - LN2) < 1e-6


def test_optimize_escapes_shallow_saddle():
    w = from_amplitudes([0, 1.0, 1.0, 0, 1.0, 0, 0, 0])
    out = optimize(w, tol=1e-12)
    assert out.converged
    assert criterion_check(out.state, 1e-5).satisfied


def test_optimize_three_qubits_from_random_start():
    out = optimize(haar_random_state(3, 17), tol=1e-12)
    assert out.converged
    for site in (1, 2, 3):
        assert abs(reduced_entropy(out.state, site).entropy_nats - LN2) < 1e-6
        assert np.allclose(reduced_density(out.state, site), np.eye(2) / 2, atol=1e-6)


def test_optimize_monotone_descent():
    for seed in (3, 4, 5):
        trace: list = []
        optimize(haar_random_state(2, seed), tol=1e-18, seed=seed, trace=trace)
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert len(trace) >= 2


def test_optimize_iteration_starvation():
    initial = from_amplitudes([0.9, math.sqrt(1 - 0.81), 0, 0])
    out = optimize(initial, tol=1e-12, max_iter=1)
    assert not out.converged
    assert out.iterations == 1
    assert out.final_cost < cost(initial)  # best-so-far still improved
    frozen = optimize(initial, tol=1e-12, max_iter=0)
    assert frozen.iterations == 0
    assert frozen.final_cost == pytest.approx(cost(initial), abs=1e-15)


def test_optimize_validates_arguments():
    st = haar_random_state(2, 1)
    with pytest.raises(ValueError):
        optimize(st, tol=0.0)
    with pytest.raises(ValueError):
        optimize(st, tol=1e-9, max_iter=-1)


@pytest.mark.parametrize("tol", [math.nan, -math.inf, -1e-12])
def test_optimize_and_multi_start_reject_nan_and_negative_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        optimize(haar_random_state(2, 1), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        multi_start(2, 2, tol, seed=1)


def test_multi_start_contract():
    with pytest.raises(ValueError):
        multi_start(2, 0, 1e-12, seed=1)
    single = multi_start(2, 1, 1e-12, seed=1)
    assert len(single) == 1 and isinstance(single[0], SearchOutcome)

    runs = multi_start(2, 10, 1e-12, seed=6)
    costs = [o.final_cost for o in runs]
    assert costs == sorted(costs)
    assert all(o.converged for o in runs)
    assert len({o.seed for o in runs}) == 10

    again = multi_start(2, 10, 1e-12, seed=6)
    for a, b in zip(runs, again):
        assert a.final_cost == b.final_cost
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_three_qubit_balanced_example_has_zero_cost():
    assert cost(example_state("three_qubit_balanced")) < 1e-12


def test_residuals_jacobian_matches_oracle():
    # rows are 2(sigma_k psi - e_k psi)/<psi|psi> with site-major k, also off
    # the unit sphere; the float64 view interleaves (Re, Im)
    for n, scale in ((2, 1.0), (3, 0.6), (4, 1.7)):
        psi = scale * haar_random_state(n, 50 + n).amplitudes
        e, jac = _residuals_jacobian(psi, n)
        w = jac.view(complex)
        nn = np.vdot(psi, psi).real
        for site in range(1, n + 1):
            for axis in (1, 2, 3):
                k = 3 * (site - 1) + axis - 1
                sp = oracles.site_operator(n, site, oracles.SIGMA[axis]) @ psi
                want = oracles.expectation(psi, n, site, axis) / nn
                assert e[k] == pytest.approx(want, abs=1e-12)
                assert np.allclose(w[k], 2.0 * (sp - want * psi) / nn, atol=1e-12)


def test_optimize_stop_reasons_and_counts():
    done = optimize(epr_family("varphi", 0.0), tol=1e-12)
    assert (done.stop_reason, done.cost_evals, done.escapes) == ("converged", 1, 0)

    initial = from_amplitudes([0.9, math.sqrt(1 - 0.81), 0, 0])
    starved = optimize(initial, tol=1e-12, max_iter=1)
    assert starved.stop_reason == "max_iter"
    assert starved.cost_evals >= 2
    assert optimize(initial, tol=1e-12, max_iter=0).stop_reason == "max_iter"

    # no state beats rounding by 30 orders of magnitude: every damped step
    # and every kick fails at the floor
    stuck = optimize(haar_random_state(2, 3), tol=1e-60)
    assert stuck.stop_reason == "stuck" and not stuck.converged
    assert stuck.final_cost < 1e-24
    assert stuck.cost_evals > stuck.iterations + 100

    # |++> is an exact critical point: only a kick can leave it
    kicked = optimize(from_amplitudes([1.0, 0, 0, 0]), tol=1e-12, seed=2)
    assert kicked.stop_reason == "converged" and kicked.escapes >= 1


@pytest.mark.parametrize("n", [4, 5, 8])
def test_multi_start_converges_quickly_for_larger_registers(n):
    runs = multi_start(n, 16, 1e-12, seed=100 + n)
    for o in runs:
        assert o.converged and o.stop_reason == "converged"
        assert o.iterations <= 12
        for site in range(1, n + 1):
            assert abs(reduced_entropy(o.state, site).entropy_nats - LN2) <= 1e-6


def test_optimize_escapes_four_qubit_product_state():
    out = optimize(from_amplitudes([1.0] + [0.0] * 15), tol=1e-12, seed=4)
    assert out.converged and out.escapes >= 1
    for site in range(1, 5):
        assert abs(reduced_entropy(out.state, site).entropy_nats - LN2) <= 1e-6
