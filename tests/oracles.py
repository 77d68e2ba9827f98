"""Brute-force reference implementations used only by the tests.

Everything here builds full 2^n x 2^n operators with np.kron or walks
amplitude indices bit by bit, deliberately avoiding the reshape and
einsum shortcuts used by the package, so the two sides can disagree.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
I2 = np.eye(2, dtype=complex)


def site_operator(n: int, site: int, op: np.ndarray) -> np.ndarray:
    """Dense operator acting as op on the 1-based site and identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for k in range(1, n + 1):
        out = np.kron(out, op if k == site else I2)
    return out


def expectation(amps: np.ndarray, n: int, site: int, axis: int) -> float:
    m = site_operator(n, site, SIGMA[axis])
    return float(np.real(np.conj(amps) @ (m @ amps)))


def joint_expectation(
    amps: np.ndarray, n: int, site_a: int, axis_a: int, site_b: int, axis_b: int
) -> float:
    m = site_operator(n, site_a, SIGMA[axis_a]) @ site_operator(n, site_b, SIGMA[axis_b])
    return float(np.real(np.conj(amps) @ (m @ amps)))


def covariance(amps, n, site_a, axis_a, site_b, axis_b) -> float:
    return joint_expectation(amps, n, site_a, axis_a, site_b, axis_b) - expectation(
        amps, n, site_a, axis_a
    ) * expectation(amps, n, site_b, axis_b)


def partial_trace_loops(amps: np.ndarray, n: int, site: int) -> np.ndarray:
    """Single-site marginal by explicit index bookkeeping.

    Site 1 owns the most significant bit of the basis index.
    """
    shift = n - site
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            acc = 0.0 + 0.0j
            for k in range(amps.size):
                if (k >> shift) & 1 != i:
                    continue
                partner = (k & ~(1 << shift)) | (j << shift)
                acc += amps[k] * np.conj(amps[partner])
            rho[i, j] = acc
    return rho


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(rho)[::-1]


def entropy_of_density(rho: np.ndarray) -> float:
    s = 0.0
    for lam in np.linalg.eigvalsh(rho):
        if lam > 1e-300:
            s -= float(lam) * math.log(float(lam))
    return s


def binary_entropy(p: float) -> float:
    s = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            s -= q * math.log(q)
    return s


def born_probabilities_projectors(amps: np.ndarray, n: int, bases) -> np.ndarray:
    """Outcome distribution via explicit eigenprojectors (I +- sigma)/2."""
    probs = np.empty(amps.size)
    for index in range(amps.size):
        proj = np.array([[1.0 + 0j]])
        for pos, axis in enumerate(bases):
            bit = (index >> (n - pos - 1)) & 1
            sign = 1.0 if bit == 0 else -1.0
            proj = np.kron(proj, (I2 + sign * SIGMA[axis]) / 2.0)
        probs[index] = float(np.real(np.conj(amps) @ (proj @ amps)))
    return probs


def commutator_frobenius(rho: np.ndarray, axis: int) -> float:
    c = SIGMA[axis] @ rho - rho @ SIGMA[axis]
    return float(np.sqrt(np.sum(np.abs(c) ** 2)))


def cost_sum(amps: np.ndarray, n: int) -> float:
    return sum(
        expectation(amps, n, site, axis) ** 2
        for site in range(1, n + 1)
        for axis in (1, 2, 3)
    )


def outcome_tuple(index: int, n: int) -> tuple[int, ...]:
    """Outcome index as +1/-1 per site; site 1 owns the most significant bit."""
    return tuple(1 if (index >> (n - site)) & 1 == 0 else -1 for site in range(1, n + 1))


def sampled_counts(probs: np.ndarray, shots: int, seed: int) -> dict:
    """The Born sampler's draws for ``seed``, tallied into an outcome dict."""
    draws = np.random.default_rng(seed).random(shots)
    idx = np.minimum(np.searchsorted(np.cumsum(probs), draws, side="right"), probs.size - 1)
    n = probs.size.bit_length() - 1
    values, tallies = np.unique(idx, return_counts=True)
    return {outcome_tuple(int(k), n): int(c) for k, c in zip(values, tallies)}


def empirical_expectation(counts: dict, shots: int, site: int) -> float:
    return sum(outcome[site - 1] * c for outcome, c in counts.items()) / shots


def empirical_product_mean(counts: dict, shots: int, site_a: int, site_b: int) -> float:
    return sum(o[site_a - 1] * o[site_b - 1] * c for o, c in counts.items()) / shots


def empirical_covariance(counts: dict, shots: int, site_a: int, site_b: int) -> float:
    return empirical_product_mean(counts, shots, site_a, site_b) - empirical_expectation(
        counts, shots, site_a
    ) * empirical_expectation(counts, shots, site_b)


def mutual_information(counts: dict, shots: int, site_a: int, site_b: int) -> float:
    """Plug-in mutual information from an outcome dict, summed term by term."""
    joint: dict[tuple[int, int], int] = {}
    for outcome, c in counts.items():
        key = (outcome[site_a - 1], outcome[site_b - 1])
        joint[key] = joint.get(key, 0) + c
    p_a: dict[int, float] = {}
    p_b: dict[int, float] = {}
    for (xa, xb), c in joint.items():
        p_a[xa] = p_a.get(xa, 0.0) + c / shots
        p_b[xb] = p_b.get(xb, 0.0) + c / shots
    mi = 0.0
    for (xa, xb), c in joint.items():
        p = c / shots
        if p > 0.0:
            mi += p * math.log(p / (p_a[xa] * p_b[xb]))
    return mi
