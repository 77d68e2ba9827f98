"""Local Pauli observables, correlations, and a Born-rule shot sampler.

Axes are numbered 1, 2, 3 for the x, y, z Pauli operators in the |+>, |->
basis. All 3n local expectations come from one kernel,
:func:`local_expectations` (which :mod:`maxent.search` runs on unnormalized
vectors too), and each pair's correlations from one contraction of the
pair's reduced density. The single-site density-matrix route lives in
:mod:`maxent.entanglement` and the two are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import apply_single_site
from .states import State

AXES = (1, 2, 3)

AXIS_TO_CHAR = {1: "x", 2: "y", 3: "z"}
CHAR_TO_AXIS = {c: a for a, c in AXIS_TO_CHAR.items()}

_SIGMA = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Columns are the +1 and -1 eigenvectors of the corresponding Pauli.
_EIGENBASIS = {
    1: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128),
    2: np.array([[_INV_SQRT2, _INV_SQRT2], [1.0j * _INV_SQRT2, -1.0j * _INV_SQRT2]], dtype=np.complex128),
    3: np.eye(2, dtype=np.complex128),
}


def _check_axis(axis: int) -> int:
    if axis not in AXES:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    return axis


def _check_site(n_qubits: int, site: int) -> int:
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site must be in [1, {n_qubits}], got {site}")
    return site


def pauli(axis: int) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 1 (x), 2 (y) or 3 (z)."""
    return _SIGMA[_check_axis(axis)].copy()


def _local_expectations_raw(psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """All 3n local Pauli expectations of an unnormalized vector.

    Row i holds (e1, e2, e3) for site i+1, each divided by <psi|psi> so the
    result is scale invariant (smooth off the sphere, which the gradient
    check relies on).
    """
    nn = np.vdot(psi, psi).real
    out = np.empty((n_qubits, 3))
    for site in range(n_qubits):
        a = psi.reshape(1 << site, 2, -1)
        a0, a1 = a[:, 0, :], a[:, 1, :]
        cross = np.vdot(a0, a1)
        out[site, 0] = 2.0 * cross.real
        out[site, 1] = 2.0 * cross.imag
        out[site, 2] = np.vdot(a0, a0).real - np.vdot(a1, a1).real
    out /= nn
    return out


def local_expectations(state: State) -> np.ndarray:
    """All 3n local Pauli expectations as an (n, 3) array.

    Entry [site - 1, axis - 1] is the mean of that single-site Pauli
    measurement; row site - 1 is the site's Bloch vector.
    """
    return _local_expectations_raw(state.amplitudes, state.n_qubits)


def local_expectation(state: State, site: int, axis: int) -> float:
    """Mean of a single-site Pauli measurement, in [-1, 1]."""
    _check_site(state.n_qubits, site)
    return float(local_expectations(state)[site - 1, _check_axis(axis) - 1])


def local_variance(state: State, site: int, axis: int) -> float:
    """Variance of a single-site Pauli measurement, 1 - expectation^2."""
    e = local_expectation(state, site, axis)
    return 1.0 - e * e


def bloch_vector(state: State, site: int) -> np.ndarray:
    """The three local Pauli expectations of one site as a real 3-vector."""
    _check_site(state.n_qubits, site)
    return local_expectations(state)[site - 1]


def correlation(state: State, site_a: int, axis_a: int, site_b: int, axis_b: int) -> float:
    """Covariance of two single-site Pauli measurements on distinct sites."""
    i, j = _check_axis(axis_a) - 1, _check_axis(axis_b) - 1
    return float(correlation_matrix(state, site_a, site_b).t[i, j])


@dataclass(frozen=True)
class CorrelationMatrix:
    """3x3 matrix of pairwise Pauli covariances for one site pair."""

    t: np.ndarray
    site_pair: tuple[int, int]

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float, copy=True)
        if t.shape != (3, 3):
            raise ValueError(f"correlation matrix must be 3x3, got {t.shape}")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    def __eq__(self, other) -> bool:
        """Equal site pairs and equal whole matrices."""
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        return self.site_pair == other.site_pair and np.array_equal(self.t, other.t)


# Row 4p + q is (s_p (x) s_q)^T flattened, for s_0..s_3 = I, x, y, z, so its
# product with a flattened 4x4 density rho is Tr(rho s_p (x) s_q).
_PAULI_BASIS = (np.eye(2), *_SIGMA.values())
_PAIR_PAULIS = np.array([np.kron(p, q).T.ravel() for p in _PAULI_BASIS for q in _PAULI_BASIS])


def correlation_matrix(state: State, site_a: int, site_b: int) -> CorrelationMatrix:
    """All nine Pauli covariances between two distinct sites.

    The moments M[p, q] = <s_p (x) s_q> (s_0 = I) of the pair's reduced
    density hold the joint terms and both marginals: T = M[i, j] - M[i, 0] M[0, j].
    """
    if state.n_qubits < 2:
        raise ValueError("correlation matrix needs at least 2 qubits")
    if site_a == site_b:
        raise ValueError("correlation matrix requires two distinct sites")
    _check_site(state.n_qubits, site_a)
    _check_site(state.n_qubits, site_b)
    lo, hi = sorted((site_a, site_b))
    cube = state.amplitudes.reshape(1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1)
    pair = cube.transpose(1, 3, 0, 2, 4).reshape(4, -1)
    rho = pair @ pair.conj().T
    m = (_PAIR_PAULIS @ rho.ravel()).real.reshape(4, 4)
    t = m[1:, 1:] - np.outer(m[1:, 0], m[0, 1:])
    return CorrelationMatrix(t=t if site_a < site_b else t.T, site_pair=(site_a, site_b))


def born_probabilities(state: State, bases) -> np.ndarray:
    """Exact outcome distribution for per-site Pauli measurements.

    Entry k is the probability of the outcome tuple whose bits (most
    significant site first) encode +1 as 0 and -1 as 1. Computed by rotating
    each site into the eigenbasis of its chosen Pauli.
    """
    bases = _check_bases(state, bases)
    rotated = state.amplitudes
    for site, axis in enumerate(bases, start=1):
        rotated = apply_single_site(
            rotated, state.n_qubits, site, _EIGENBASIS[axis].conj().T
        )
    return np.abs(rotated) ** 2


def _check_bases(state: State, bases) -> tuple[int, ...]:
    bases = tuple(bases)
    if len(bases) != state.n_qubits:
        raise ValueError(
            f"got {len(bases)} measurement axes for {state.n_qubits} qubits"
        )
    for axis in bases:
        _check_axis(axis)
    return bases


def axes_from_chars(text: str) -> tuple[int, ...]:
    """Map a string like 'zxz' to measurement axes (3, 1, 3)."""
    try:
        return tuple(CHAR_TO_AXIS[c] for c in text.lower())
    except KeyError as exc:
        raise ValueError(f"basis characters must be x, y or z, got {text!r}") from exc


def chars_from_axes(bases) -> str:
    return "".join(AXIS_TO_CHAR[a] for a in bases)


def outcome_symbols(outcome) -> str:
    """Render an outcome tuple like (+1, -1) as '+-'."""
    return "".join("+" if v > 0 else "-" for v in outcome)


def _signs(n_qubits: int) -> np.ndarray:
    """Outcome table: entry [k, i] is site i+1's +-1 outcome in outcome k."""
    bits = np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)
    return 1 - 2 * (bits & 1)


@dataclass(frozen=True)
class ShotRecord:
    """Joint local-measurement outcomes from a seeded sampling run.

    ``binned[k]`` counts outcome k, whose bits (most significant site first)
    encode +1 as 0 and -1 as 1, the order of :func:`born_probabilities`.
    The counts always sum to ``shots``. ``seed`` pins the PCG64 stream that
    produced the record, so identical inputs reproduce it exactly.
    """

    bases: tuple[int, ...]
    shots: int
    binned: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self) -> None:
        binned = np.array(self.binned, dtype=np.int64)
        if binned.shape != (1 << len(self.bases),):
            raise ValueError(f"expected {1 << len(self.bases)} counts, got shape {binned.shape}")
        binned.setflags(write=False)
        object.__setattr__(self, "binned", binned)

    def __eq__(self, other) -> bool:
        """Field-by-field equality, comparing the counts as whole arrays."""
        if not isinstance(other, ShotRecord):
            return NotImplemented
        mine, theirs = (self.bases, self.shots, self.seed), (other.bases, other.shots, other.seed)
        return mine == theirs and np.array_equal(self.binned, other.binned)

    @property
    def counts(self) -> dict:
        """Outcome tuples in {+1, -1}^n mapped to their nonzero counts."""
        signs = _signs(len(self.bases))
        return {tuple(signs[k].tolist()): int(self.binned[k]) for k in np.flatnonzero(self.binned)}

    def to_table(self) -> str:
        """Text table: a header line, then 'outcome count' rows.

        Rows are sorted lexicographically by outcome symbols with + before -.
        """
        header = f"bases={chars_from_axes(self.bases)} seed={self.seed} shots={self.shots}"
        rows = sorted((outcome_symbols(o), c) for o, c in self.counts.items())
        return "\n".join([header] + [f"{sym} {count}" for sym, count in rows]) + "\n"


def sample_outcomes(state: State, bases, shots: int, seed: int) -> ShotRecord:
    """Draw i.i.d. outcome tuples from the exact Born distribution.

    The random stream is numpy's PCG64 seeded with ``seed``; it consumes one
    uniform draw per shot, so a given (state, bases, shots, seed) always
    yields the same record. Outcomes with exactly zero probability are never
    produced.
    """
    bases = _check_bases(state, bases)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = born_probabilities(state, bases)
    cum = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    idx = np.searchsorted(cum, draws, side="right")
    np.minimum(idx, probs.size - 1, out=idx)
    binned = np.bincount(idx, minlength=probs.size)
    return ShotRecord(bases=bases, shots=shots, binned=binned, seed=seed)


def empirical_moments(record: ShotRecord) -> tuple[np.ndarray, np.ndarray]:
    """Sample means of every site's outcomes and of every pair's products.

    Returns ``(means, products)`` of shapes (n,) and (n, n): ``means[i]`` is
    the mean +-1 outcome at site i+1 and ``products[i, j]`` the mean product
    of the outcomes at sites i+1 and j+1 (1 on the diagonal). Both are exact
    integer sums over the counts, divided by ``shots`` once.
    """
    signs = _signs(len(record.bases))
    weighted = signs.T * record.binned
    return weighted.sum(axis=1) / record.shots, (weighted @ signs) / record.shots


def empirical_expectation(record: ShotRecord, site: int) -> float:
    """Sample mean of the +-1 outcomes at one site."""
    return float(empirical_moments(record)[0][_check_site(len(record.bases), site) - 1])


def empirical_correlation(record: ShotRecord, site_a: int, site_b: int) -> float:
    """Sample covariance of the outcomes at two sites."""
    a = _check_site(len(record.bases), site_a) - 1
    b = _check_site(len(record.bases), site_b) - 1
    means, products = empirical_moments(record)
    return float(products[a, b] - means[a] * means[b])


def mutual_information(record: ShotRecord, site_a: int, site_b: int) -> float:
    """Plug-in Shannon mutual information of two sites' outcomes, in nats.

    Uses the empirical joint distribution of the record with the 0 ln 0 = 0
    convention.
    """
    a = _check_site(len(record.bases), site_a) - 1
    b = _check_site(len(record.bases), site_b) - 1
    bits = (1 - _signs(len(record.bases))) // 2
    joint = np.bincount(2 * bits[:, a] + bits[:, b], weights=record.binned, minlength=4)
    p = joint.reshape(2, 2) / record.shots
    p_a, p_b = p.sum(axis=1), p.sum(axis=0)
    seen = p > 0.0
    return float(np.sum(p[seen] * np.log(p[seen] / np.outer(p_a, p_b)[seen])))
