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
import operator

import numpy as np

MAX_QUBITS = 8

STATE_NORM_TOL = 1e-9


def _check_n(n_qubits: int) -> int:
    """The qubit count as an int, checked to be in [1, 8]; a float is a TypeError."""
    n = operator.index(n_qubits)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    return n


def _require_amplitudes(amplitudes, n_qubits: int) -> np.ndarray:
    """A flat complex128 view or copy of a finite length-2^n vector, 1 <= n <= 8."""
    n_qubits = _check_n(n_qubits)
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.size != 1 << n_qubits:
        raise ValueError(
            f"amplitude vector has length {amps.size}, expected {1 << n_qubits}"
        )
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes contain non-finite entries")
    return amps


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a flat complex vector, by the formula np.linalg.norm runs,
    without its Python-level wrapper, so the bits are the same."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _check_site(n_qubits: int, site: int) -> int:
    """The site as an int, checked to be in [1, n_qubits]; a float is a TypeError."""
    site = operator.index(site)
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site must be in [1, {n_qubits}], got {site}")
    return site


def apply_single_site(amplitudes, n_qubits: int, site: int, op) -> np.ndarray:
    """Act with a 2x2 operator on one site of an amplitude vector.

    ``site`` is 1-based; site 1 is the most significant index. The input
    need not be normalized.
    """
    amps = _require_amplitudes(amplitudes, n_qubits)
    site = _check_site(n_qubits, site)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError("single-site operator must be 2x2")
    return _apply_site(amps, site, op)


def _apply_site(amps: np.ndarray, site: int, op: np.ndarray) -> np.ndarray:
    """:func:`apply_single_site` without its checks, for valid inputs."""
    cube = amps.reshape(1 << (site - 1), 2, -1)
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
    site = _check_site(n_qubits, site)
    norm = _norm(amps)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond 1e-9")
    cube = amps.reshape(1 << (site - 1), 2, -1)
    return np.einsum("aib,ajb->ij", cube, cube.conj())

