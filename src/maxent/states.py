"""Construction and bookkeeping of pure qubit-register states.

Basis convention, fixed package-wide: kets are labelled by strings over
``{+, -}``, ``+`` encodes bit 0, ``-`` encodes bit 1, and the first site is
the most significant index. For two qubits the amplitude order is therefore
``++, +-, -+, --``, which makes the 2x2 coefficient matrix of a state the
plain row-major reshape of its amplitudes.

Global phase is never canonicalized; every certificate computed downstream
is phase-invariant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_QUBITS, STATE_NORM_TOL

INGEST_NORM_FLOOR = 1e-12

# Skip renormalization when the norm is already 1 to a few ulps, so that
# writing and re-reading a canonical state is bit-identical.
_EXACT_NORM_WINDOW = 4e-16


def basis_index(label: str) -> int:
    """Index of a basis ket given its +/- label (first symbol most significant)."""
    if not label or any(ch not in "+-" for ch in label):
        raise ValueError(f"basis label must be a nonempty string over {{+,-}}, got {label!r}")
    index = 0
    for ch in label:
        index = 2 * index + (0 if ch == "+" else 1)
    return index


def basis_label(index: int, n_qubits: int) -> str:
    """+/- label of the basis ket at ``index`` in an ``n_qubits`` register."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"index {index} out of range for {n_qubits} qubits")
    return "".join("+" if (index >> k) & 1 == 0 else "-" for k in range(n_qubits - 1, -1, -1))


@dataclass(frozen=True, eq=False)
class State:
    """Normalized amplitude vector of an n-qubit register.

    Direct construction demands a vector already normalized within 1e-9
    (it is then silently rescaled to machine precision); arbitrary input
    should enter through :func:`from_amplitudes`, which normalizes anything
    with norm above 1e-12. The stored array is an immutable copy.

    Attributes
    ----------
    n_qubits : int
        Register size, 1 to 8.
    amplitudes : numpy.ndarray
        Complex amplitudes of length ``2**n_qubits`` in basis order, unit norm.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.size != 1 << self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {1 << self.n_qubits}"
            )
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(
                f"state norm {norm!r} deviates from 1 beyond 1e-9; "
                "use from_amplitudes to normalize arbitrary input"
            )
        if abs(norm - 1.0) > _EXACT_NORM_WINDOW:
            amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:  # the full array is noisy for n > 2
        return f"State(n_qubits={self.n_qubits}, amplitudes={self.amplitudes.tolist()!r})"


def from_amplitudes(raw) -> State:
    """Build a state from raw amplitudes, normalizing on ingest.

    The input length must be a power of two between 2 and 256 and the norm
    must exceed 1e-12; the vector is rescaled to unit norm and the qubit
    count recorded.
    """
    amps = np.array(raw, dtype=np.complex128).reshape(-1)
    if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
        raise ValueError("amplitudes contain non-finite entries")
    size = amps.size
    n = size.bit_length() - 1
    if size < 2 or size != (1 << n):
        raise ValueError(f"amplitude count {size} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if not math.isfinite(norm):
        # Finite entries whose squares overflow: bring the largest part to 1.
        amps = amps / np.max(np.abs(amps.view(np.float64)))
        norm = float(np.linalg.norm(amps))
    if norm <= INGEST_NORM_FLOOR:
        raise ValueError("amplitude vector has (near) zero norm")
    if abs(norm - 1.0) > _EXACT_NORM_WINDOW:
        amps = amps / norm
    return State(n_qubits=n, amplitudes=amps)


def epr_family(kind: str, phase: float) -> State:
    """One of the two maximally entangled 2-qubit families.

    ``kind="psi"`` gives (|+-> + e^{i phase}|-+>)/sqrt(2) and
    ``kind="varphi"`` gives (|++> + e^{i phase}|-->)/sqrt(2).
    """
    w = cmath.exp(1j * phase)
    if kind == "psi":
        amps = np.array([0.0, 1.0, w, 0.0], dtype=np.complex128)
    elif kind == "varphi":
        amps = np.array([1.0, 0.0, 0.0, w], dtype=np.complex128)
    else:
        raise ValueError(f"kind must be 'psi' or 'varphi', got {kind!r}")
    return State(2, amps / math.sqrt(2.0))


def schmidt_state(b1: float, b2: float) -> State:
    """Diagonal 2-qubit state b1|++> + b2|--> with nonnegative coefficients."""
    if b1 < 0.0 or b2 < 0.0:
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(b1 * b1 + b2 * b2 - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"coefficients not normalized: b1^2 + b2^2 = {b1 * b1 + b2 * b2!r}")
    return State(2, np.array([b1, 0.0, 0.0, b2], dtype=np.complex128))


def ghz(sign: str) -> State:
    """Three-qubit state (|+++> +- |--->)/sqrt(2), picked by sign '+' or '-'."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = 1.0
    amps[7] = 1.0 if sign == "+" else -1.0
    return State(3, amps / math.sqrt(2.0))


# Named reference states used throughout the test and verification suites.
# All of them have every single-site Pauli expectation equal to zero.
EXAMPLE_STATE_NAMES = (
    "two_qubit_balanced",
    "two_qubit_balanced_partner",
    "three_qubit_balanced",
)


def example_state(name: str) -> State:
    """Named maximally entangled reference states.

    ``two_qubit_balanced``          (i, 1, 1, i)/2
    ``two_qubit_balanced_partner``  (1, i, i, 1)/2, orthogonal to the above
    ``three_qubit_balanced``        (1, -i, 1, i, i, 1, -i, 1)/sqrt(8)
    """
    if name == "two_qubit_balanced":
        amps = np.array([1j, 1.0, 1.0, 1j], dtype=np.complex128) / 2.0
        return State(2, amps)
    if name == "two_qubit_balanced_partner":
        amps = np.array([1.0, 1j, 1j, 1.0], dtype=np.complex128) / 2.0
        return State(2, amps)
    if name == "three_qubit_balanced":
        amps = np.array([1.0, -1j, 1.0, 1j, 1j, 1.0, -1j, 1.0], dtype=np.complex128)
        return State(3, amps / math.sqrt(8.0))
    raise ValueError(f"unknown example state {name!r}; known: {', '.join(EXAMPLE_STATE_NAMES)}")


def as_coefficient_matrix(state: State) -> np.ndarray:
    """2x2 coefficient matrix [[a11, a12], [a21, a22]] of a 2-qubit state.

    Row index is the first site, column index the second; flattening the
    result row-major recovers the amplitudes exactly.
    """
    if state.n_qubits != 2:
        raise ValueError(f"coefficient matrix needs a 2-qubit state, got {state.n_qubits}")
    return state.amplitudes.reshape(2, 2)
