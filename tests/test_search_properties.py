"""Property tests of the search cost, its gradient and the optimizer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent.measurement import _images
from maxent.search import _jacobian, cost_gradient_raw, cost_raw, optimize
from maxent.states import from_amplitudes

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

_component = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def vectors(draw, max_qubits: int = 4):
    """(n, complex vector of length 2^n) with norm bounded away from zero."""
    n = draw(st.integers(1, max_qubits))
    parts = draw(st.lists(_component, min_size=2 << n, max_size=2 << n))
    psi = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    if np.linalg.norm(psi) < 1e-3:
        psi[0] += 1.0
    return n, psi


@PROPERTY
@given(vectors(), st.floats(1e-3, 1e3), st.floats(0.0, 2.0 * np.pi))
def test_cost_bounded_and_invariant_under_scale_and_phase(case, scale, phase):
    n, psi = case
    c = cost_raw(psi, n)
    assert 0.0 <= c <= n * (1.0 + 1e-12)
    moved = cost_raw(scale * np.exp(1j * phase) * psi, n)
    assert abs(moved - c) <= 1e-12 * max(1.0, c)


@PROPERTY
@given(vectors())
def test_gradient_is_twice_residuals_times_jacobian(case):
    n, psi = case
    nn, images, e = _images(psi, n)
    w = _jacobian(psi, nn, images, e).view(complex)
    want = 2.0 * sum(e[k] * w[k] for k in range(e.size))
    assert np.allclose(cost_gradient_raw(psi, n), want, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(vectors(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_optimize_never_ends_above_its_start(case, max_iter, seed):
    n, psi = case
    initial = from_amplitudes(psi)
    out = optimize(initial, tol=1e-12, max_iter=max_iter, seed=seed)
    # Equal seeds replay the same iterates: the k-iteration run ends on the
    # k-th accepted cost.
    costs = [
        optimize(initial, tol=1e-12, max_iter=k, seed=seed).final_cost
        for k in range(out.iterations + 1)
    ]
    assert out.final_cost <= cost_raw(initial.amplitudes, n)
    assert costs[0] == cost_raw(initial.amplitudes, n)
    assert costs[-1] == out.final_cost
    assert len(costs) == out.iterations + 1 <= max_iter + 1
    assert all(b < a for a, b in zip(costs, costs[1:]))
