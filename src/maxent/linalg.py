"""Small dense complex linear algebra for qubit registers.

All matrices and amplitude vectors are plain numpy arrays (complex128),
stored row major. The Kronecker convention is fixed package-wide: in any
tensor product the first factor owns the most significant index. Registers
are capped at 8 qubits (256 amplitudes).

Every function here is pure: inputs are never mutated and results are fresh
arrays, so concurrent use is safe.
"""

from __future__ import annotations

import math

import numpy as np

MAX_QUBITS = 8

STATE_NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-10


def _require_matrix(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_amplitudes(amplitudes, n_qubits: int) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    if amps.size != 1 << n_qubits:
        raise ValueError(
            f"amplitude vector has length {amps.size}, expected {1 << n_qubits}"
        )
    if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
        raise ValueError("amplitudes contain non-finite entries")
    return amps


def apply_single_site(amplitudes, n_qubits: int, site: int, op) -> np.ndarray:
    """Act with a 2x2 operator on one site of an amplitude vector.

    ``site`` is 1-based; site 1 is the most significant index. The input
    need not be normalized.
    """
    amps = _require_amplitudes(amplitudes, n_qubits)
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site must be in [1, {n_qubits}], got {site}")
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError("single-site operator must be 2x2")
    left = 1 << (site - 1)
    right = 1 << (n_qubits - site)
    cube = amps.reshape(left, 2, right)
    return np.einsum("st,atb->asb", op, cube).reshape(-1)


def partial_trace_single_site(amplitudes, n_qubits: int, site: int) -> np.ndarray:
    """Reduced 2x2 density matrix of one site of a normalized pure state.

    Traces the projector of the state over every site except ``site``
    (1-based) by the definitional sum over kept and summed indices:
    rho[i, j] = sum over the other sites' indices of a[..i..] * conj(a[..j..]).

    Parameters
    ----------
    amplitudes : array_like
        Amplitude vector of length 2**n_qubits, normalized within 1e-9.
    n_qubits : int
        Register size, between 1 and 8.
    site : int
        Which site to keep, 1-based.

    Returns
    -------
    numpy.ndarray
        2x2 Hermitian matrix with unit trace.
    """
    amps = _require_amplitudes(amplitudes, n_qubits)
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site must be in [1, {n_qubits}], got {site}")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond 1e-9")
    return _partial_trace(amps, site)


def _partial_trace(amps: np.ndarray, site: int) -> np.ndarray:
    """:func:`partial_trace_single_site` without its checks, for valid inputs."""
    cube = amps.reshape(1 << (site - 1), 2, -1)
    return np.einsum("aib,ajb->ij", cube, cube.conj())


def hermitian_eigenvalues_2x2(m) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix in descending order.

    Uses the closed form lam = (tr +- sqrt(tr^2 - 4 det)) / 2. The input
    must be Hermitian within 1e-10 entrywise.
    """
    m = _require_matrix(m, "m")
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if (
        abs(m[0, 0].imag) > HERMITICITY_TOL
        or abs(m[1, 1].imag) > HERMITICITY_TOL
        or abs(m[0, 1] - np.conj(m[1, 0])) > HERMITICITY_TOL
    ):
        raise ValueError("matrix is not Hermitian within 1e-10")
    tr = float(m[0, 0].real + m[1, 1].real)
    # The discriminant tr^2 - 4 det equals (a - d)^2 + 4|b|^2; the latter is
    # a sum of squares, so it avoids the cancellation that would otherwise
    # corrupt near-degenerate spectra at the sqrt(rounding) scale.
    root = math.hypot(float(m[0, 0].real - m[1, 1].real), 2.0 * float(abs(m[0, 1])))
    return ((tr + root) / 2.0, (tr - root) / 2.0)

