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
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import STATE_NORM_TOL, _norm, _require_amplitudes

INGEST_NORM_FLOOR = 1e-12

# Skip renormalization when the norm is already 1 to a few ulps, so that
# writing and re-reading a canonical state is bit-identical.
_EXACT_NORM_WINDOW = 4e-16


@functools.cache
def _ket_labels(n_qubits: int) -> tuple[str, ...]:
    """+/- labels of the 2^n basis kets of an n-qubit register, in index order."""
    # product varies its last position fastest: the first site is most significant.
    return tuple(map("".join, itertools.product("+-", repeat=n_qubits)))


def _unit(amps: np.ndarray) -> np.ndarray:
    """A unit-norm copy of a flat complex vector whose norm is 1 within 1e-9.

    The vector is divided by its norm only when that norm is off 1 by more
    than the exact-norm window; either way the result is a new array, never
    the caller's.
    """
    norm = _norm(amps)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(
            f"state norm {norm!r} deviates from 1 beyond 1e-9; "
            "use from_amplitudes to normalize arbitrary input"
        )
    return amps / norm if abs(norm - 1.0) > _EXACT_NORM_WINDOW else amps.copy()


@dataclass(frozen=True, eq=False)
class State:
    """Normalized amplitude vector of an n-qubit register.

    Direct construction demands a vector already normalized within 1e-9
    (it is then silently rescaled to machine precision); arbitrary input
    should enter through :func:`from_amplitudes`, which normalizes anything
    with norm above 1e-12. The stored array is an immutable copy, and the
    stored qubit count a plain int (a bool qubit count is stored as 0 or 1).

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
        amps = _unit(_require_amplitudes(self.amplitudes, self.n_qubits))
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", operator.index(self.n_qubits))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        """Every amplitude's exact repr, so a printed state rebuilds bit for bit
        (numpy's array repr rounds to 8 digits)."""
        return f"State(n_qubits={self.n_qubits}, amplitudes={self.amplitudes.tolist()!r})"


def from_amplitudes(raw) -> State:
    """Build a state from raw amplitudes, normalizing on ingest.

    The input length must be a power of two between 2 and 256 and the norm
    must exceed 1e-12; the vector is rescaled to unit norm, and the returned
    :class:`State` checks the qubit count and that every entry is finite.
    """
    amps = np.array(raw, dtype=np.complex128).reshape(-1)
    size = amps.size
    n = size.bit_length() - 1
    if size < 2 or size != (1 << n):
        raise ValueError(f"amplitude count {size} is not a power of two >= 2")
    with np.errstate(over="ignore"):
        norm = _norm(amps)
    if math.isinf(norm) and np.isfinite(amps).all():
        # Finite entries whose squares overflow: bring the largest part to 1.
        amps = amps / np.max(np.abs(amps.view(np.float64)))
        norm = _norm(amps)
    if norm <= INGEST_NORM_FLOOR:
        raise ValueError("amplitude vector has (near) zero norm")
    if math.isfinite(norm) and abs(norm - 1.0) > _EXACT_NORM_WINDOW:
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
_EXAMPLES = {
    "two_qubit_balanced": (2, np.array([1j, 1.0, 1.0, 1j]) / 2.0),
    "two_qubit_balanced_partner": (2, np.array([1.0, 1j, 1j, 1.0]) / 2.0),
    "three_qubit_balanced": (
        3, np.array([1.0, -1j, 1.0, 1j, 1j, 1.0, -1j, 1.0]) / math.sqrt(8.0)
    ),
}
EXAMPLE_STATE_NAMES = tuple(_EXAMPLES)


def example_state(name: str) -> State:
    """Named maximally entangled reference states.

    ``two_qubit_balanced``          (i, 1, 1, i)/2
    ``two_qubit_balanced_partner``  (1, i, i, 1)/2, orthogonal to the above
    ``three_qubit_balanced``        (1, -i, 1, i, i, 1, -i, 1)/sqrt(8)
    """
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example state {name!r}; known: {', '.join(EXAMPLE_STATE_NAMES)}")
    return State(*_EXAMPLES[name])


def as_coefficient_matrix(state: State) -> np.ndarray:
    """2x2 coefficient matrix [[a11, a12], [a21, a22]] of a 2-qubit state.

    Row index is the first site, column index the second; flattening the
    result row-major recovers the amplitudes exactly.
    """
    if state.n_qubits != 2:
        raise ValueError(f"coefficient matrix needs a 2-qubit state, got {state.n_qubits}")
    return state.amplitudes.reshape(2, 2)
