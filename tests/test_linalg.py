import numpy as np
import pytest

from maxent.entanglement import site_marginals
from maxent.linalg import _norm, apply_single_site, partial_trace_single_site
from maxent.search import haar_random_state, multi_start
from maxent.states import State, from_amplitudes

import oracles


def _random_state(rng, n):
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def test_apply_single_site_matches_dense_operator():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        psi = _random_state(rng, n)
        for site in range(1, n + 1):
            op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            got = apply_single_site(psi, n, site, op)
            want = oracles.site_operator(n, site, op) @ psi
            assert np.allclose(got, want, atol=1e-14)


def test_apply_single_site_rejects_bad_site():
    psi = np.array([1.0, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError):
        apply_single_site(psi, 2, 0, np.eye(2))
    with pytest.raises(ValueError):
        apply_single_site(psi, 2, 3, np.eye(2))
    with pytest.raises(ValueError, match="^single-site operator must be 2x2$"):
        apply_single_site(psi, 2, 1, np.eye(3))


@pytest.mark.parametrize("n", range(1, 9))
def test_norm_matches_numpy_norm_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    sparse = z.copy()
    sparse[::3] = 0.0
    sparse.imag[1::2] = 0.0
    vectors = [z * scale for scale in (1.0, 1e-7, 3.5e4, 1e-300, 1e150)]
    vectors += [sparse, sparse * 1e-300, sparse * 1e150, np.zeros(dim, dtype=complex)]
    for v in vectors:
        want = np.linalg.norm(v)
        assert _norm(v).hex() == float(want).hex()


def test_partial_trace_matches_index_loops():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        psi = _random_state(rng, n)
        for site in range(1, n + 1):
            got = partial_trace_single_site(psi, n, site)
            want = oracles.partial_trace_loops(psi, n, site)
            assert np.allclose(got, want, atol=1e-14)
            assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_requires_normalized_input():
    psi = np.array([1.0, 0, 0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        partial_trace_single_site(psi, 2, 1)


def test_partial_trace_rejects_raw_input_that_is_not_a_state():
    with pytest.raises(ValueError, match="non-finite"):
        partial_trace_single_site(np.array([np.nan, 1.0, 0, 0]), 2, 1)
    with pytest.raises(ValueError, match="non-finite"):
        partial_trace_single_site(np.array([1.0, 0, 0, np.inf * 1j]), 2, 2)
    with pytest.raises(ValueError, match="length 3, expected 4"):
        partial_trace_single_site(np.array([1.0, 0, 0]), 2, 1)
    with pytest.raises(ValueError, match="site"):
        partial_trace_single_site(np.array([1.0, 0, 0, 0]), 2, 3)


@pytest.mark.parametrize(
    "take_n",
    [
        lambda n: State(n, [1.0, 0.0]),
        lambda n: apply_single_site([1.0, 0.0], n, 1, np.eye(2)),
        lambda n: partial_trace_single_site([1.0, 0.0], n, 1),
        lambda n: haar_random_state(n, 1),
        lambda n: multi_start(n, 1, 1e-12, seed=1),
    ],
    ids=[
        "State", "apply_single_site", "partial_trace_single_site", "haar_random_state", "multi_start"
    ],
)
def test_every_qubit_count_is_checked_alike(take_n):
    for bad in (0, 9):
        with pytest.raises(ValueError, match=rf"^n must be in \[1, 8\], got {bad}$"):
            take_n(bad)
    with pytest.raises(TypeError):
        take_n(2.0)


@pytest.mark.parametrize(
    "bad", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, np.nan), complex(0.0, -np.inf)]
)
def test_non_finite_real_or_imaginary_part_is_refused(bad):
    amps = np.array([bad, 1.0, 0.0, 0.0])
    assert np.isfinite(amps.real).all() != np.isfinite(amps.imag).all()
    message = "^amplitudes contain non-finite entries$"
    with pytest.raises(ValueError, match=message):
        State(2, amps)
    with pytest.raises(ValueError, match=message):
        apply_single_site(amps, 2, 1, np.eye(2))
    with pytest.raises(ValueError, match=message):
        from_amplitudes(amps)


def test_eigenvalues_accurate_near_degeneracy():
    # Marginals rho = (I + b.sigma)/2 with |b| = O(1e-13): a discriminant
    # tr^2 - 4 det would lose the split to cancellation at the 1e-8 scale,
    # while site_marginals' (1 +- |b|)/2 keeps it.
    rng = np.random.default_rng(5)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for _ in range(50):
        b = 1e-13 * rng.standard_normal(3)
        h = (np.eye(2) + np.einsum("a,aij->ij", b, paulis)) / 2
        got = site_marginals(b[None, :])[0][0]
        want = np.linalg.eigvalsh(h)[::-1]
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)
