import dataclasses
import math

import numpy as np
import pytest

from maxent import search
from maxent.entanglement import (
    LN2,
    constraint_check,
    criterion_check,
    reduced_entropy,
)
from maxent.measurement import _images, local_expectations
from maxent.search import (
    DEFAULT_MAX_ITER,
    ConstraintParams,
    SearchOutcome,
    _jacobian,
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
    State,
    _unit,
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
    cases = ((epr_family("varphi", 0.0), 0.0), (from_amplitudes([1.0, 0, 0, 0]), 2.0), (ghz("+"), 0.0))
    for st, want in cases:
        assert cost_raw(st.amplitudes, st.n_qubits) == pytest.approx(want, abs=1e-15)
    for seed in range(10):
        st = haar_random_state(3, seed)
        assert cost_raw(st.amplitudes, st.n_qubits) == pytest.approx(
            oracles.cost_sum(st.amplitudes, 3), abs=1e-12
        )


def test_cost_global_phase_invariance():
    for seed in range(10):
        st = haar_random_state(2, seed)
        rotated = st.amplitudes * np.exp(0.7j)
        assert abs(cost_raw(rotated, 2) - cost_raw(st.amplitudes, st.n_qubits)) < 1e-12


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
    # every marginal (I + b.sigma)/2 is I/2 to within |b|/2
    assert np.allclose(local_expectations(out.state), 0.0, atol=1e-6)


def test_optimize_monotone_descent():
    # Equal seeds replay the same iterates, so the run cut at k iterations
    # ends on the k-th accepted cost.
    for seed in (3, 4, 5):
        initial = haar_random_state(2, seed)
        full = optimize(initial, tol=1e-18, seed=seed)
        costs = [
            optimize(initial, tol=1e-18, max_iter=k, seed=seed).final_cost
            for k in range(full.iterations + 1)
        ]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert len(costs) >= 2


def test_optimize_iteration_starvation():
    initial = from_amplitudes([0.9, math.sqrt(1 - 0.81), 0, 0])
    start_cost = cost_raw(initial.amplitudes, 2)
    out = optimize(initial, tol=1e-12, max_iter=1)
    assert not out.converged
    assert out.iterations == 1
    assert out.final_cost < start_cost  # best-so-far still improved
    frozen = optimize(initial, tol=1e-12, max_iter=0)
    assert frozen.iterations == 0
    assert frozen.final_cost == pytest.approx(start_cost, abs=1e-15)


def test_optimize_validates_arguments():
    st = haar_random_state(2, 1)
    with pytest.raises(ValueError):
        optimize(st, tol=0.0)
    with pytest.raises(ValueError):
        optimize(st, tol=1e-9, max_iter=-1)
    # checked up front, although the kick generator is built only at a first kick
    with pytest.raises(ValueError, match="seed must be >= 0"):
        optimize(st, tol=1e-9, seed=-1)
    with pytest.raises(TypeError):
        optimize(st, tol=1e-9, seed=np.random.default_rng(1))


def test_qubit_counts_must_be_integers():
    # refused at the range check, not later inside a bit shift
    not_int = "cannot be interpreted as an integer"
    for bad in (2.0, np.float64(2)):
        with pytest.raises(TypeError, match=not_int):
            haar_random_state(bad, 1)
        with pytest.raises(TypeError, match=not_int):
            multi_start(bad, 2, 1e-12, seed=1)
        with pytest.raises(TypeError, match=not_int):
            State(bad, [1.0, 0.0, 0.0, 0.0])
    # bools are integers, as they are for seeds
    assert State(True, [1.0, 0.0]).dim == 2
    assert haar_random_state(True, 1).dim == 2


def test_multi_start_draws_the_haar_random_state_vectors():
    # multi_start draws its starts as arrays; each must be the vector that
    # haar_random_state stores, also where State divides by the norm again
    second_division = {7: 33670, 8: 1518}
    for n, seed in second_division.items():
        drawn = search._haar_direction(n, seed)
        assert abs(float(np.linalg.norm(drawn)) - 1.0) > 4e-16
        assert _unit(drawn).tobytes() != drawn.tobytes()
    for n in range(1, 9):
        for seed in (0, 1, 2**64 - 1, second_division.get(n, 2)):
            start = _unit(search._haar_direction(n, seed))
            assert start.tobytes() == haar_random_state(n, seed).amplitudes.tobytes()
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        multi_start(2.0, 4, 1e-12, seed=1)
    for bad in (0, 9):
        with pytest.raises(ValueError, match=rf"^n must be in \[1, 8\], got {bad}$"):
            multi_start(bad, 4, 1e-12, seed=1)
    (out,) = multi_start(True, 1, 1e-12, seed=1)
    assert type(out.state.n_qubits) is int and out.state.n_qubits == 1


def test_search_takes_integer_iteration_counts_starts_and_seeds():
    st = haar_random_state(3, 1)
    for max_iter in (1.5, math.nan, np.float64(2)):
        with pytest.raises(TypeError):
            optimize(st, 1e-12, max_iter=max_iter)
        with pytest.raises(TypeError):
            multi_start(3, 2, 1e-12, seed=1, max_iter=max_iter)
    for bad in (2.5, 2.0):
        with pytest.raises(TypeError):
            multi_start(2, bad, 1e-12, seed=1)
        with pytest.raises(TypeError):
            multi_start(2, 2, 1e-12, seed=bad)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        multi_start(2, 2, 1e-12, seed=-1)
    a, b = optimize(st, 1e-12, max_iter=np.int64(2)), optimize(st, 1e-12, max_iter=2)
    assert (a.iterations, a.final_cost, a.stop_reason) == (b.iterations, b.final_cost, "max_iter")


@pytest.mark.parametrize("tol", [math.nan, -math.inf, -1e-12])
def test_optimize_and_multi_start_reject_nan_and_negative_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        optimize(haar_random_state(2, 1), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        multi_start(2, 2, tol, seed=1)


def test_multi_start_contract():
    with pytest.raises(ValueError):
        multi_start(2, 0, 1e-12, seed=1)
    for n in (0, 9):  # the batch size is worked out from n only after n is checked
        with pytest.raises(ValueError, match="n must be in"):
            multi_start(n, 2, 1e-12, seed=1)
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
    st = example_state("three_qubit_balanced")
    assert cost_raw(st.amplitudes, st.n_qubits) < 1e-12


def test_residuals_jacobian_matches_oracle():
    # rows are 2(sigma_k psi - e_k psi)/<psi|psi> with site-major k, also off
    # the unit sphere; the float64 view interleaves (Re, Im)
    for n, scale in ((2, 1.0), (3, 0.6), (4, 1.7), (8, 2.3)):
        psi = scale * haar_random_state(n, 50 + n).amplitudes
        nn, images, e = _images(psi, n)
        w = _jacobian(psi, nn, images, e).view(complex)
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


def assert_same_outcomes(got, want):
    """Every SearchOutcome field equal, the amplitudes and costs to the bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(SearchOutcome):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "state":
                assert x.n_qubits == y.n_qubits
                assert x.amplitudes.tobytes() == y.amplitudes.tobytes()
            elif field.name == "final_cost":
                assert x.hex() == y.hex()
            else:
                assert x == y and type(x) is type(y), field.name


@pytest.mark.parametrize("n", range(2, 9))
def test_multi_start_matches_serial_reference(n):
    # lockstep batches: every start up to n = 6, 3 then the rest at n = 7, 1
    # at a time at n = 8; odd row counts, and stacks that shrink as starts finish
    for starts in (1, 3, 4, 5):
        for seed in range(3 if n < 8 else 1):
            want = oracles.serial_multi_start(n, starts, 1e-12, seed, DEFAULT_MAX_ITER)
            assert_same_outcomes(multi_start(n, starts, 1e-12, seed), want)
        starved = multi_start(n, starts, 1e-12, 7, max_iter=2)
        assert_same_outcomes(starved, oracles.serial_multi_start(n, starts, 1e-12, 7, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_multi_start_stuck_runs_match_serial_reference(n):
    # at tol 1e-60 every run ends on the damping ladder and 128 failed kicks
    got = multi_start(n, 4, 1e-60, 3)
    assert {o.stop_reason for o in got} == {"stuck"}
    assert_same_outcomes(got, oracles.serial_multi_start(n, 4, 1e-60, 3, DEFAULT_MAX_ITER))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lockstep_batch_with_product_state_matches_serial_reference(n):
    # |0...0> has zero gradient, so its start leaves only by kicks while the
    # Haar starts beside it take batched steps
    zero = from_amplitudes([1.0] + [0.0] * ((1 << n) - 1))
    initial = [zero, haar_random_state(n, 1), zero, haar_random_state(n, 2)]
    seeds = [11, 12, 13, 14]
    got = search._descend(n, [s.amplitudes for s in initial], 1e-12, DEFAULT_MAX_ITER, seeds)
    want = [
        oracles.serial_optimize(s, 1e-12, DEFAULT_MAX_ITER, seed)
        for s, seed in zip(initial, seeds)
    ]
    assert_same_outcomes(got, want)
    assert got[0].escapes >= 1 and got[2].escapes >= 1


def test_lockstep_singular_stack_falls_back_per_start(monkeypatch):
    # At n = 2, J J^T has rank <= 5 of 6 (|b_1| = |b_2|), and LAPACK sometimes
    # finds it exactly singular: numpy's stacked solve then raises for the
    # whole batch and every start of that round goes on alone from mu = 0.
    unsolved = []
    candidates = search._candidates

    def spy(run, psi, e, jac, jjt, tried):
        unsolved.append(not tried)
        return candidates(run, psi, e, jac, jjt, tried)

    monkeypatch.setattr(search, "_candidates", spy)
    for seed in range(4):
        want = oracles.serial_multi_start(2, 4, 1e-12, seed, DEFAULT_MAX_ITER)
        assert_same_outcomes(multi_start(2, 4, 1e-12, seed), want)
    assert any(unsolved)
    # alone, a start whose solve raised retries mu = 0, which raises again and
    # is caught without a cost evaluation, then goes on to the damped steps
    for seed in range(8):
        initial = haar_random_state(2, seed)
        want = oracles.serial_optimize(initial, 1e-12, DEFAULT_MAX_ITER, seed)
        assert_same_outcomes([optimize(initial, 1e-12, seed=seed)], [want])
