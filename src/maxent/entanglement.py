"""Single-site marginals, entropies, and certificates of maximal entanglement.

A state of n qubits is maximally entangled exactly when all 3n local Pauli
expectations vanish, equivalently when every single-site reduced density is
I/2 and every single-site entropy is ln 2. Site i's marginal is
(I + b_i.sigma)/2 for its Bloch vector b_i, so :func:`site_marginals` reads
every site's spectrum, entropy and commutator defect off the Bloch array.
For 2 qubits the same set is cut out by constraints on the coefficient
matrix: |a11|^2 + |a12|^2 = 1/2, |a22| = |a11|, |a21| = |a12|, and
arg a11 + arg a22 - arg a12 - arg a21 congruent to pi mod 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _apply_site, _check_site
from .measurement import local_expectations
from .states import State, as_coefficient_matrix

CRITERION_TOL = 1e-9
CONSTRAINT_TOL = 1e-6
_UNITARY_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-12

LN2 = math.log(2.0)

_HALF_SIGNS = np.array([0.5, -0.5])


def site_marginals(bloch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every site's marginal spectrum, entropy and commutator defect.

    Row i of the (n, 3) ``bloch`` array fixes rho_i = (I + b_i.sigma)/2; r = |b_i|.
    Returns eigenvalues (n, 2) = ((1 + r)/2, (1 - r)/2), clamped to [0, 1]
    (one below -1e-12 is an error); entropies (n,) = -sum lam ln lam in nats,
    with 0 ln 0 = 0; and defects (n,) = max_a ||[sigma_a, rho_i]||_F, which
    is sqrt(2 (r^2 - min_a b_a^2)) and zero exactly when rho_i = I/2.
    """
    b2 = np.square(np.asarray(bloch, dtype=np.float64))
    r2 = b2.sum(axis=1)
    raw = 0.5 + np.sqrt(r2)[:, None] * _HALF_SIGNS
    if raw.min() < _EIGENVALUE_FLOOR:
        raise ValueError(f"marginal eigenvalue {raw.min()} is negative beyond rounding")
    eigenvalues = np.minimum(np.maximum(raw, 0.0), 1.0)
    # ln 1 = 0 stands in where lam = 0, so 0 ln 0 counts as 0; no term is > 0.
    xlogx = eigenvalues * np.log(eigenvalues + (eigenvalues == 0.0))
    entropies = 0.0 - xlogx.sum(axis=1)
    # r2 is a sum of the same squares, so r2 >= min(b2) in floating point too.
    defects = np.sqrt(2.0 * (r2 - b2.min(axis=1)))
    return eigenvalues, entropies, defects


@dataclass(frozen=True)
class EntropyReport:
    """Spectrum and von Neumann entropy of one site's marginal."""

    site: int
    eigenvalues: tuple[float, float]
    entropy_nats: float


def reduced_entropy(state: State, site: int) -> EntropyReport:
    """Von Neumann entropy of one site's marginal, in nats.

    One entry of :func:`site_marginals`: eigenvalues in [-1e-12, 0) are
    treated as rounding and clamped to 0; anything more negative is an
    error. Uses the 0 ln 0 = 0 convention.
    """
    site = _check_site(state.n_qubits, site)
    eigenvalues, entropies, _ = site_marginals(local_expectations(state))
    return EntropyReport(site, tuple(eigenvalues[site - 1].tolist()), float(entropies[site - 1]))


@dataclass(frozen=True)
class CriterionReport:
    """Verdict of the all-local-expectations-vanish test.

    ``expectations[site - 1][axis - 1]`` is that local Pauli expectation, a
    float: the rows of :func:`local_expectations` as tuples. ``satisfied``
    holds exactly when ``max_abs_expectation <= tolerance``.
    """

    expectations: tuple[tuple[float, float, float], ...]
    max_abs_expectation: float
    satisfied: bool
    tolerance: float


def criterion_check(state: State, tolerance: float = CRITERION_TOL) -> CriterionReport:
    """Test whether all 3n local Pauli expectations vanish within tolerance."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    e = local_expectations(state)
    max_abs = float(np.max(np.abs(e)))
    return CriterionReport(
        expectations=tuple(map(tuple, e.tolist())),
        max_abs_expectation=max_abs,
        satisfied=max_abs <= tolerance,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class ConstraintReport:
    """Residuals of the 2-qubit coefficient-matrix constraint system.

    ``modulus_residuals`` are |(|a11|^2 + |a12|^2) - 1/2|, ||a22| - |a11||,
    ||a21| - |a12||. ``phase_residual`` is the distance of the phase sum
    arg a11 + arg a22 - arg a12 - arg a21 from pi mod 2 pi; it is reported
    as 0 in the degenerate case (some modulus below tolerance), where the
    phase constraint is vacuous.
    """

    modulus_residuals: tuple[float, float, float]
    phase_residual: float
    satisfied: bool
    degenerate: bool


def constraint_check(a: np.ndarray, tolerance: float = CONSTRAINT_TOL) -> ConstraintReport:
    """Check a normalized 2x2 coefficient matrix against the constraint system."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (2, 2):
        raise ValueError(f"coefficient matrix must be 2x2, got {a.shape}")
    total = float(np.sum(np.abs(a) ** 2))
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"coefficient matrix must be normalized, got norm^2 {total}")
    m11, m12 = float(abs(a[0, 0])), float(abs(a[0, 1]))
    m21, m22 = float(abs(a[1, 0])), float(abs(a[1, 1]))
    modulus_residuals = (
        abs(m11 * m11 + m12 * m12 - 0.5),
        abs(m22 - m11),
        abs(m21 - m12),
    )
    degenerate = m11 <= tolerance or m12 <= tolerance
    if degenerate:
        phase_residual = 0.0
    else:
        phase_sum = (
            math.atan2(a[0, 0].imag, a[0, 0].real)
            + math.atan2(a[1, 1].imag, a[1, 1].real)
            - math.atan2(a[0, 1].imag, a[0, 1].real)
            - math.atan2(a[1, 0].imag, a[1, 0].real)
        )
        phase_residual = abs(math.remainder(phase_sum - math.pi, 2.0 * math.pi))
    satisfied = all(r <= tolerance for r in modulus_residuals) and (
        degenerate or phase_residual <= tolerance
    )
    return ConstraintReport(
        modulus_residuals=modulus_residuals,
        phase_residual=phase_residual,
        satisfied=satisfied,
        degenerate=degenerate,
    )


def schmidt_coefficients(state: State) -> tuple[float, float]:
    """Descending singular values of the 2-qubit coefficient matrix A.

    A A^dagger is site 1's marginal, so they are the square roots of its
    spectrum from :func:`site_marginals`; their squares sum to 1.
    """
    as_coefficient_matrix(state)  # a ValueError unless n == 2
    eigenvalues = site_marginals(local_expectations(state))[0][0]
    return tuple(math.sqrt(v) for v in eigenvalues.tolist())


def commutator_defect(state: State, site: int) -> float:
    """Largest Frobenius norm of [sigma, rho_site] over the three Paulis.

    One entry of :func:`site_marginals`. Zero exactly when the site's
    marginal is diagonal in every Pauli basis, i.e. when it is I/2.
    """
    site = _check_site(state.n_qubits, site)
    return float(site_marginals(local_expectations(state))[2][site - 1])


def apply_local_unitaries(state: State, unitaries) -> State:
    """Apply one 2x2 unitary per site, returning the transformed state.

    For 2 qubits this realizes the coefficient-matrix map A -> u1 A u2^T,
    which the tests cross-check against this direct vector action.
    """
    unitaries = [np.asarray(u, dtype=np.complex128) for u in unitaries]
    if len(unitaries) != state.n_qubits:
        raise ValueError(
            f"got {len(unitaries)} unitaries for {state.n_qubits} qubits"
        )
    for k, u in enumerate(unitaries, start=1):
        if u.shape != (2, 2):
            raise ValueError(f"factor {k} must be 2x2, got {u.shape}")
        # Written as "not <=" so that a NaN factor fails here, by name.
        if not np.max(np.abs(u @ u.conj().T - np.eye(2))) <= _UNITARY_TOL:
            raise ValueError(f"factor {k} is not unitary within {_UNITARY_TOL}")
    amplitudes = state.amplitudes
    for site, u in enumerate(unitaries, start=1):
        amplitudes = _apply_site(amplitudes, site, u)
    return State(n_qubits=state.n_qubits, amplitudes=amplitudes)


def trace_invariant(state: State) -> float:
    """Tr(A A^dagger) of the 2-qubit coefficient matrix; 1 when normalized."""
    a = as_coefficient_matrix(state)
    return float(np.trace(a @ a.conj().T).real)
