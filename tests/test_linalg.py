import numpy as np
import pytest

from maxent.linalg import (
    apply_single_site,
    hermitian_eigenvalues_2x2,
    partial_trace_single_site,
)

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


def test_eigenvalues_match_lapack_on_random_hermitian():
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (z + z.conj().T) / 2
        got = hermitian_eigenvalues_2x2(h)
        want = np.linalg.eigvalsh(h)[::-1]
        assert np.allclose(got, want, atol=1e-12)
        assert got[0] >= got[1]


def test_eigenvalues_accurate_near_degeneracy():
    # Half-trace matrices with an O(1e-13) split: the naive discriminant
    # tr^2 - 4 det would lose the split to cancellation at the 1e-8 scale.
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = np.eye(2) / 2 + 1e-13 * (z + z.conj().T)
        got = hermitian_eigenvalues_2x2(h)
        want = np.linalg.eigvalsh(h)[::-1]
        assert np.allclose(got, want, atol=1e-15)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues_2x2(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_eigenvalues_2x2(np.array([[1j, 0.0], [0.0, 1.0]]))


def test_eigenvalues_reject_wrong_shape():
    with pytest.raises(ValueError):
        hermitian_eigenvalues_2x2(np.eye(3))

