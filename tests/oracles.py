"""Brute-force reference implementations used only by the tests.

Everything here builds full 2^n x 2^n operators with np.kron or walks
amplitude indices bit by bit, deliberately avoiding the reshape and
einsum shortcuts used by the package, so the two sides can disagree. The
exceptions are the row-by-row state-file parser and the serial search
reference at the end, which keep the package's old code paths.
"""

from __future__ import annotations

import json
import math

import numpy as np

from maxent import search
from maxent.linalg import MAX_QUBITS
from maxent.measurement import _image_tables
from maxent.statefile import FORMAT_TAG, StateFileError
from maxent.states import State, from_amplitudes

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


def multinomial_counts(probs: np.ndarray, shots: int, seed: int) -> dict:
    """Multinomial counts for ``seed`` by the conditional-binomial chain.

    Walks the outcomes of nonzero probability in index order: each takes a
    binomial share of the shots still left, at its probability over the
    probability still left, and the last takes the remainder. Tallied into
    an outcome dict.
    """
    n = probs.size.bit_length() - 1
    support = np.flatnonzero(probs)
    weights = probs[support] / probs[support].sum()
    rng = np.random.default_rng(seed)
    counts = {}
    left, rest = shots, 1.0
    for k, p in zip(support[:-1], weights[:-1]):
        c = int(rng.binomial(left, p / rest))
        if c:
            counts[outcome_tuple(int(k), n)] = c
        left -= c
        if left == 0:
            return counts
        rest -= p
    counts[outcome_tuple(int(support[-1]), n)] = left
    return counts


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


def json_leaves(value) -> tuple:
    """The leaves of a JSON value in the order ``json.dumps(sort_keys=True)`` writes
    them, each bool as its JSON token: the row a CLI splice template takes."""
    if isinstance(value, dict):
        return tuple(leaf for key in sorted(value) for leaf in json_leaves(value[key]))
    if isinstance(value, list):
        return tuple(leaf for item in value for leaf in json_leaves(item))
    return (json.dumps(value) if isinstance(value, bool) else value,)


# ---------------------------------------------- row-by-row state-file parser
#
# statefile.parse_state as it was before it read the amplitude rows in one
# pass: every line stripped and numbered, every row split, converted and
# checked on its own. It is the reference for which documents are accepted
# and for the line and message of each diagnostic.


def _state_field(lines: list[tuple[int, str]], pos: int, key: str, required: bool):
    if pos >= len(lines):
        if required:
            raise StateFileError(lines[-1][0], f"missing '{key}:' field")
        return None, pos
    lineno, text = lines[pos]
    prefix = key + ":"
    if not text.startswith(prefix):
        if required:
            raise StateFileError(lineno, f"expected '{key}:', got {text!r}")
        return None, pos
    return text[len(prefix):].strip(), pos + 1


def parse_state_rows(text: str) -> tuple[State, str | None]:
    lines = [
        (i, line)
        for i, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip())
    ]
    if not lines:
        raise StateFileError(1, "empty document")
    pos = 0
    tag, pos = _state_field(lines, pos, "format", required=True)
    if tag != FORMAT_TAG:
        raise StateFileError(lines[0][0], f"unsupported format {tag!r}, expected {FORMAT_TAG!r}")
    n_text, pos = _state_field(lines, pos, "n_qubits", required=True)
    n_line = lines[pos - 1][0]
    try:
        n = int(n_text)
    except ValueError:
        raise StateFileError(n_line, f"n_qubits must be an integer, got {n_text!r}") from None
    if not 1 <= n <= MAX_QUBITS:
        raise StateFileError(n_line, f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    label, pos = _state_field(lines, pos, "label", required=False)
    header, pos = _state_field(lines, pos, "amplitudes", required=True)
    header_line = lines[pos - 1][0]
    if header:
        raise StateFileError(header_line, "amplitudes header takes no value")
    dim = 1 << n
    rows = lines[pos:]
    if len(rows) < dim:
        raise StateFileError(
            rows[-1][0] if rows else header_line,
            f"expected {dim} amplitude lines, found {len(rows)}",
        )
    if len(rows) > dim:
        raise StateFileError(rows[dim][0], f"unexpected content after {dim} amplitude lines")
    amplitudes = []
    for lineno, text_row in rows:
        parts = text_row.split()
        if len(parts) != 2:
            raise StateFileError(lineno, f"expected 're im' pair, got {text_row!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            raise StateFileError(lineno, f"unparseable number in {text_row!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise StateFileError(lineno, f"non-finite amplitude in {text_row!r}")
        amplitudes.append(complex(re, im))
    try:
        state = from_amplitudes(amplitudes)
    except ValueError as exc:
        raise StateFileError(header_line, str(exc)) from None
    return state, label if label else None


# ------------------------------------------------- serial search reference
#
# The optimizer as it ran before its starts moved into lockstep batches: one
# start at a time, every candidate costed alone, with the unstacked kernels
# (one gather phase * psi[perm], one matrix-vector product). The package
# must reproduce it bit for bit.


def _serial_residuals_jacobian(psi: np.ndarray, n_qubits: int):
    perm, phase = _image_tables(n_qubits)
    nn = np.vdot(psi, psi).real
    w = phase * psi[perm]
    e = w.view(np.float64) @ psi.view(np.float64) / nn
    w -= e[:, None] * psi
    w *= 2.0 / nn
    return e, w.view(np.float64)


def serial_cost(psi: np.ndarray, n_qubits: int) -> float:
    perm, phase = _image_tables(n_qubits)
    nn = np.vdot(psi, psi).real
    e = (phase * psi[perm]).view(np.float64) @ psi.view(np.float64) / nn
    e = e.reshape(n_qubits, 3)
    return float(np.sum(e * e))


def serial_optimize(initial, tol: float, max_iter: int, seed: int):
    n = initial.n_qubits
    psi = initial.amplitudes.copy()
    current = serial_cost(psi, n)
    rng = np.random.default_rng(seed)
    iterations = escapes = 0
    evals = 1
    while current > tol and iterations < max_iter:
        for cand, kicked in _serial_candidates(psi, n, rng):
            c = serial_cost(cand, n)
            evals += 1
            if c < current:
                break
        else:
            break
        psi, current = cand, c
        escapes += kicked
        iterations += 1
    return search.SearchOutcome(
        state=State(n_qubits=n, amplitudes=psi),
        final_cost=current,
        iterations=iterations,
        converged=current <= tol,
        seed=seed,
        stop_reason=(
            "converged" if current <= tol else "max_iter" if iterations == max_iter else "stuck"
        ),
        cost_evals=evals,
        escapes=escapes,
    )


def _serial_candidates(psi: np.ndarray, n_qubits: int, rng):
    e, jac = _serial_residuals_jacobian(psi, n_qubits)
    jjt = jac @ jac.T
    floor = search._DAMPING_FLOOR * np.trace(jjt) / e.size
    mu = 0.0
    for _ in range(search._DAMPING_TRIES):
        try:
            y = np.linalg.solve(jjt + mu * np.eye(e.size), e)
        except np.linalg.LinAlgError:  # exactly singular J J^T, only at mu = 0
            pass
        else:
            cand = psi - (y @ jac).view(np.complex128)
            yield cand / np.linalg.norm(cand), False
        mu = max(floor, 10.0 * mu)
    for _ in range(search._ESCAPE_DIRECTIONS):
        d = rng.standard_normal(psi.size) + 1j * rng.standard_normal(psi.size)
        d -= np.vdot(psi, d) * psi
        d /= np.linalg.norm(d)
        for eps in search._ESCAPE_SIZES:
            cand = psi + eps * d
            yield cand / np.linalg.norm(cand), True


def serial_multi_start(n: int, starts: int, tol: float, seed: int, max_iter: int):
    words = np.random.SeedSequence(seed).generate_state(starts, dtype=np.uint64)
    outcomes = []
    for word in words:
        start_seed = int(word)
        initial = search.haar_random_state(n, start_seed)
        outcomes.append(serial_optimize(initial, tol, max_iter=max_iter, seed=start_seed))
    outcomes.sort(key=lambda o: o.final_cost)
    return outcomes
