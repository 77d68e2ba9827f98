"""Local Pauli observables, correlations, and a Born-rule shot sampler.

Axes are numbered 1, 2, 3 for the x, y, z Pauli operators in the |+>, |->
basis. One kernel, ``_images``, gathers V, the 3n Pauli images sigma_a^i psi,
from cached index and phase tables and projects V onto psi. Those
projections are every local expectation (:func:`local_expectations`), and
every pair's correlations (:func:`correlation_matrices`) come from one Gram
product of V; :mod:`maxent.search` runs the same kernel on unnormalized
vectors and on stacks of them, and builds its Jacobian from V. The tests
check each site's marginal (I + b.sigma)/2, from its row b of expectations,
against the einsum partial trace :func:`maxent.linalg.partial_trace_single_site`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import _apply_site, _check_site
from .states import State

AXES = (1, 2, 3)

CHAR_TO_AXIS = {"x": 1, "y": 2, "z": 3}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Rotations into the x and y eigenbases: conjugate transposes of the matrices whose
# columns are the +1 and -1 eigenvectors. The z eigenbasis is the computational one.
_ROTATION = {
    1: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128).conj().T,
    2: np.array([[_INV_SQRT2, _INV_SQRT2], [1.0j * _INV_SQRT2, -1.0j * _INV_SQRT2]]).conj().T,
}

# numpy draws multinomial counts as int64.
_MAX_SHOTS = 2**63 - 1


def _check_axis(axis: int) -> int:
    """The axis as an int, checked to be 1, 2 or 3; a float is a TypeError."""
    axis = operator.index(axis)
    if axis not in AXES:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    return axis


@functools.cache
def _image_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables (perm, phase), each (3n, 2^n), of the Pauli images.

    (sigma_a^i psi)[k] = phase[r, k] psi[perm[r, k]] with row
    r = 3(i - 1) + a - 1. Sigma x and y flip site i's bit (y with phase
    -i where the bit is 0, +i where it is 1); sigma z keeps the index and
    negates where the bit is 1. The tables are read-only: one pair per n is
    shared by every caller.
    """
    k = np.arange(1 << n_qubits)
    bit = 1 << np.arange(n_qubits - 1, -1, -1)[:, None]
    flipped = k ^ bit
    down = (k & bit) != 0
    perm = np.stack([flipped, flipped, np.broadcast_to(k, flipped.shape)], axis=1)
    phase = np.stack(
        [np.ones(down.shape), np.where(down, 1j, -1j), np.where(down, -1.0, 1.0)], axis=1
    )
    tables = perm.reshape(3 * n_qubits, -1), phase.reshape(3 * n_qubits, -1)
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=32)
def _stack_index(n_qubits: int, rows: int) -> np.ndarray:
    """Flat gather index, (rows, 3n, 2^n), of the images of every row of a stack.

    One flat gather of a C-ordered (rows, 2^n) stack is faster than indexing
    its second axis with the (3n, 2^n) permutation table. A table is half the
    size of the images it gathers; the cache is bounded because the row
    count of a search batch shrinks as its starts finish.
    """
    perm, _ = _image_tables(n_qubits)
    index = perm + (perm.shape[1] * np.arange(rows))[:, None, None]
    index.setflags(write=False)
    return index


def _images(psi: np.ndarray, n_qubits: int):
    """(<psi|psi>, V, e) of a vector, or of each row of a (k, 2^n) stack.

    V holds the 3n Pauli images by one gather, row 3(site - 1) + axis - 1
    being psi with sigma_axis at site; the phases are +-1 and +-i, so the
    products are exact. e holds the 3n expectations Re<psi|V_r>/<psi|psi>,
    scale invariant (smooth off the sphere, which the gradient check relies
    on). Each slice of a stack's results has the bits of its row alone: the
    squared norms, a (k, 1) column, come from one vecdot, which calls the
    same BLAS dot as vdot once per row, and the real product
    Re a Re b + Im a Im b of the float64 views runs slice by slice as the
    same matrix-vector call.
    """
    perm, phase = _image_tables(n_qubits)
    if psi.ndim == 1:
        nn = np.vdot(psi, psi).real
        images = psi[perm]
    else:
        nn = np.vecdot(psi, psi).real[:, None]
        images = psi.ravel()[_stack_index(n_qubits, psi.shape[0])]
    images *= phase
    real = images.view(np.float64) @ psi.view(np.float64)[..., None]
    return nn, images, real[..., 0] / nn


def local_expectations(state: State) -> np.ndarray:
    """All 3n local Pauli expectations as an (n, 3) array.

    Entry [site - 1, axis - 1] is the mean of that single-site Pauli
    measurement; row site - 1 is the site's Bloch vector.
    """
    return _images(state.amplitudes, state.n_qubits)[2].reshape(state.n_qubits, 3)


def local_expectation(state: State, site: int, axis: int) -> float:
    """Mean of a single-site Pauli measurement, in [-1, 1]."""
    site = _check_site(state.n_qubits, site)
    return float(local_expectations(state)[site - 1, _check_axis(axis) - 1])


def bloch_vector(state: State, site: int) -> np.ndarray:
    """The three local Pauli expectations of one site as a real 3-vector."""
    return local_expectations(state)[_check_site(state.n_qubits, site) - 1]


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


def correlation_matrices(state: State) -> np.ndarray:
    """Every site pair's Pauli covariances as an (n, n, 3, 3) array.

    Entry [i - 1, j - 1, a - 1, b - 1] is <s_a^i s_b^j> - <s_a^i><s_b^j>.
    The Paulis are Hermitian, so <s_a^i s_b^j> = Re<V_ia|V_jb> for the Pauli
    images V, and one Gram product gives every pair. Entry [j, i] is the
    transpose of [i, j]; the diagonal block [i, i] is the site's own
    symmetrized covariance I - e_i e_i^T, since Re<V_ia|V_ib> = delta_ab.
    """
    n = state.n_qubits
    nn, images, e = _images(state.amplitudes, n)
    real = images.view(np.float64)
    # numpy evaluates a @ a.T as one symmetric rank-k update, so t is exactly symmetric.
    t = real @ real.T / nn - np.outer(e, e)
    return t.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)


def correlation_matrix(state: State, site_a: int, site_b: int) -> CorrelationMatrix:
    """All nine Pauli covariances between two distinct sites.

    One entry of :func:`correlation_matrices`: t[i - 1, j - 1] is the
    covariance of axis i at site_a and axis j at site_b.
    """
    if site_a == site_b:
        raise ValueError("correlation matrix requires two distinct sites")
    site_a, site_b = _check_site(state.n_qubits, site_a), _check_site(state.n_qubits, site_b)
    t = correlation_matrices(state)[site_a - 1, site_b - 1]
    return CorrelationMatrix(t=t, site_pair=(site_a, site_b))


def born_probabilities(state: State, bases) -> np.ndarray:
    """Exact outcome distribution for per-site Pauli measurements.

    Entry k is the probability of the outcome tuple whose bits (most
    significant site first) encode +1 as 0 and -1 as 1. Computed by rotating
    each x or y site into its Pauli's eigenbasis; z sites are not rotated (the
    identity could flip only the sign of an exact zero, which |.|^2 erases).
    """
    bases = tuple(bases)
    if len(bases) != state.n_qubits:
        raise ValueError(f"got {len(bases)} measurement axes for {state.n_qubits} qubits")
    rotated = state.amplitudes
    for site, axis in enumerate(bases, start=1):
        if (axis := _check_axis(axis)) != 3:
            rotated = _apply_site(rotated, site, _ROTATION[axis])
    return np.abs(rotated) ** 2


def axes_from_chars(text: str) -> tuple[int, ...]:
    """Map a string like 'zxz' to measurement axes (3, 1, 3)."""
    try:
        return tuple(CHAR_TO_AXIS[c] for c in text.lower())
    except KeyError as exc:
        raise ValueError(f"basis characters must be x, y or z, got {text!r}") from exc


@functools.cache
def _bits(n_qubits: int) -> np.ndarray:
    """Read-only outcome table, one per n: [k, i] is 1 where site i+1 reads -1 in outcome k."""
    bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True)
class ShotRecord:
    """Joint local-measurement outcomes from a seeded sampling run.

    ``binned[k]`` counts outcome k, whose bits (most significant site first)
    encode +1 as 0 and -1 as 1, the order of :func:`born_probabilities`.
    Every base is an axis, stored as an int (a float is a ``TypeError``),
    ``shots`` is at least 1, and the counts are
    nonnegative and sum exactly to ``shots`` (else ``ValueError``). The
    integer ``seed`` seeded the PCG64 multinomial draw, so equal inputs
    reproduce the record exactly.
    """

    bases: tuple[int, ...]
    shots: int
    binned: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(_check_axis(axis) for axis in self.bases))
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        binned = np.array(self.binned, dtype=np.int64)
        if binned.shape != (1 << len(self.bases),):
            raise ValueError(f"expected {1 << len(self.bases)} counts, got shape {binned.shape}")
        # A Python sum is exact where an int64 sum could wrap.
        if binned.min() < 0 or sum(binned.tolist()) != self.shots:
            raise ValueError(f"counts must be nonnegative and sum to shots={self.shots}")
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
        signs = 1 - 2 * _bits(len(self.bases))
        return {tuple(signs[k].tolist()): int(self.binned[k]) for k in np.flatnonzero(self.binned)}

    @functools.cached_property
    def _joint_counts(self) -> np.ndarray:
        """Entry [x, y, i, j] counts the shots reading x at site i+1 and y at site j+1.

        Outcome index 0 is +1 and 1 is -1, so [x, x, i, i] counts site i+1's
        shots reading x. Every count, and every difference the estimators
        form from them, lies in [-shots, shots], so int64 holds them exactly
        for any valid ``shots``. The record and its counts are immutable, so
        the table is built once per record, on first use, and is read-only.
        """
        bits = _bits(len(self.bases))
        # One contraction counts the (-1, -1) shots; the other three entries
        # follow from each site's -1 count on the diagonal.
        both = (bits.T * self.binned) @ bits
        minus = np.diagonal(both)
        a_only = minus[:, None] - both
        b_only = minus - both
        joint = np.array([[(self.shots - minus[:, None]) - b_only, b_only], [a_only, both]])
        joint.setflags(write=False)
        return joint


def sample_outcomes(state: State, bases, shots: int, seed: int) -> ShotRecord:
    """Count ``shots`` i.i.d. outcome tuples from the exact Born distribution.

    The counts come from one multinomial draw over the outcomes of nonzero
    probability, which has the distribution of ``shots`` independent
    categorical draws at a cost independent of ``shots``. ``shots`` and
    ``seed`` must be integers (else ``TypeError``); the stream is numpy's
    PCG64 seeded with ``seed``, so equal inputs always give the same
    record. Outcomes with exactly zero probability are never produced.
    """
    bases = tuple(bases)
    probs = born_probabilities(state, bases)
    shots, seed = operator.index(shots), operator.index(seed)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be <= 2**63 - 1, got {shots}")
    support = np.flatnonzero(probs)
    # Renormalizing over the support keeps rounding from tripping numpy's
    # check that the probabilities sum to at most 1.
    weights = probs[support] / probs[support].sum()
    binned = np.zeros(probs.size, dtype=np.int64)
    binned[support] = np.random.default_rng(seed).multinomial(shots, weights)
    return ShotRecord(bases=bases, shots=shots, binned=binned, seed=seed)


def empirical_moments(record: ShotRecord) -> tuple[np.ndarray, np.ndarray]:
    """Sample means of every site's outcomes and of every pair's products.

    Returns ``(means, products)`` of shapes (n,) and (n, n): ``means[i]`` is
    the mean +-1 outcome at site i+1 and ``products[i, j]`` the mean product
    of the outcomes at sites i+1 and j+1 (1 on the diagonal). Both are exact
    integer sums over the counts, divided by ``shots`` once.
    """
    joint = record._joint_counts
    means = np.diagonal(joint[0, 0] - joint[1, 1])
    # agree - disagree: each term lies in [0, shots].
    products = (joint[0, 0] + joint[1, 1]) - (joint[0, 1] + joint[1, 0])
    return means / record.shots, products / record.shots


def empirical_expectation(record: ShotRecord, site: int) -> float:
    """Sample mean of the +-1 outcomes at one site."""
    return float(empirical_moments(record)[0][_check_site(len(record.bases), site) - 1])


def empirical_correlation(record: ShotRecord, site_a: int, site_b: int) -> float:
    """Sample covariance of the outcomes at two sites."""
    a = _check_site(len(record.bases), site_a) - 1
    b = _check_site(len(record.bases), site_b) - 1
    means, products = empirical_moments(record)
    return float(products[a, b] - means[a] * means[b])


def mutual_information_matrix(record: ShotRecord) -> np.ndarray:
    """Plug-in Shannon mutual information of every site pair, in nats.

    Entry [i, j] is the mutual information of the outcomes at sites i+1 and
    j+1; the diagonal holds each site's outcome entropy. Uses the empirical
    joint distribution of the record with the 0 ln 0 = 0 convention. Each
    pair's four joint counts are exact integers from one contraction.
    """
    p = record._joint_counts / record.shots
    # marginal[x, i] = p[x, x, i, i], the frequency of x at site i+1.
    marginal = np.diagonal(np.diagonal(p))
    independent = marginal[:, None, :, None] * marginal[None, :, None, :]
    ratio = np.divide(p, independent, out=np.ones_like(p), where=p > 0.0)
    return np.sum(p * np.log(ratio), axis=(0, 1))


def mutual_information(record: ShotRecord, site_a: int, site_b: int) -> float:
    """Plug-in Shannon mutual information of two sites' outcomes, in nats.

    One entry of :func:`mutual_information_matrix`.
    """
    a = _check_site(len(record.bases), site_a) - 1
    b = _check_site(len(record.bases), site_b) - 1
    return float(mutual_information_matrix(record)[a, b])
