"""Reduced densities, entropies, and certificates of maximal entanglement.

A state of n qubits is maximally entangled exactly when all 3n local Pauli
expectations vanish, equivalently when every single-site reduced density is
I/2 and every single-site entropy is ln 2. For 2 qubits the same set is cut
out by constraints on the coefficient matrix: |a11|^2 + |a12|^2 = 1/2,
|a22| = |a11|, |a21| = |a12|, and arg a11 + arg a22 - arg a12 - arg a21
congruent to pi mod 2 pi. This module checks all of these forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _partial_trace, apply_single_site, hermitian_eigenvalues_2x2
from .measurement import AXES, _SIGMA, _check_site, local_expectations
from .states import State, as_coefficient_matrix

CRITERION_TOL = 1e-9
CONSTRAINT_TOL = 1e-6
_UNITARY_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-12

LN2 = math.log(2.0)


def reduced_density(state: State, site: int) -> np.ndarray:
    """Single-site reduced density matrix, a 2x2 Hermitian ndarray."""
    return _partial_trace(state.amplitudes, _check_site(state.n_qubits, site))


@dataclass(frozen=True)
class EntropyReport:
    """Spectrum and von Neumann entropy of one site's marginal."""

    site: int
    eigenvalues: tuple[float, float]
    entropy_nats: float


def reduced_entropy(state: State, site: int) -> EntropyReport:
    """Von Neumann entropy of one site's marginal, in nats.

    Eigenvalues in [-1e-12, 0) are treated as rounding and clamped to 0;
    anything more negative is an error. Uses the 0 ln 0 = 0 convention.
    """
    rho = reduced_density(state, site)
    raw = hermitian_eigenvalues_2x2(rho)
    eigenvalues = []
    for lam in raw:
        if lam < _EIGENVALUE_FLOOR:
            raise ValueError(f"marginal eigenvalue {lam} is negative beyond rounding")
        eigenvalues.append(float(min(max(lam, 0.0), 1.0)))
    entropy = 0.0
    for lam in eigenvalues:
        if lam > 0.0:
            entropy -= lam * math.log(lam)
    if entropy < 0.0:
        entropy = 0.0
    return EntropyReport(
        site=site,
        eigenvalues=(eigenvalues[0], eigenvalues[1]),
        entropy_nats=entropy,
    )


@dataclass(frozen=True)
class CriterionReport:
    """Verdict of the all-local-expectations-vanish test.

    ``expectations`` maps (site, axis) to the local Pauli expectation;
    ``satisfied`` holds exactly when ``max_abs_expectation <= tolerance``.
    """

    expectations: dict
    max_abs_expectation: float
    satisfied: bool
    tolerance: float


def criterion_check(state: State, tolerance: float = CRITERION_TOL) -> CriterionReport:
    """Test whether all 3n local Pauli expectations vanish within tolerance."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    e = local_expectations(state)
    expectations = {
        (site, axis): float(e[site - 1, axis - 1])
        for site in range(1, state.n_qubits + 1)
        for axis in AXES
    }
    max_abs = float(np.max(np.abs(e)))
    return CriterionReport(
        expectations=expectations,
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


def _wrap_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


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
        phase_residual = abs(_wrap_angle(phase_sum - math.pi))
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
    """Descending singular values of the 2-qubit coefficient matrix.

    Computed as square roots of the eigenvalues of A A^dagger; their squares
    sum to 1 for a normalized state.
    """
    a = as_coefficient_matrix(state)
    lam = hermitian_eigenvalues_2x2(a @ a.conj().T)
    return tuple(math.sqrt(max(v, 0.0)) for v in lam)


def commutator_defect(state: State, site: int) -> float:
    """Largest Frobenius norm of [sigma, rho_site] over the three Paulis.

    Zero exactly when the site's marginal is diagonal in every Pauli basis,
    i.e. when it is I/2.
    """
    rho = reduced_density(state, site)
    defect = 0.0
    for axis in AXES:
        sigma = _SIGMA[axis]
        defect = max(defect, float(np.linalg.norm(sigma @ rho - rho @ sigma)))
    return defect


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
        if np.max(np.abs(u @ u.conj().T - np.eye(2))) > _UNITARY_TOL:
            raise ValueError(f"factor {k} is not unitary within {_UNITARY_TOL}")
    amplitudes = state.amplitudes
    for site, u in enumerate(unitaries, start=1):
        amplitudes = apply_single_site(amplitudes, state.n_qubits, site, u)
    return State(n_qubits=state.n_qubits, amplitudes=amplitudes)


def trace_invariant(state: State) -> float:
    """Tr(A A^dagger) of the 2-qubit coefficient matrix; 1 when normalized."""
    a = as_coefficient_matrix(state)
    return float(np.trace(a @ a.conj().T).real)
