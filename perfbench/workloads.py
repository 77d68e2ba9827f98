"""Seeded inputs, operation schedules and output checks for each workload.

Everything here uses plain numpy and never imports ``maxent``: the inputs are
written as ``maxent-state/1`` files by this module's own writer, and every
output of the program is checked against this module's own contractions.

Workloads (why each one exists is recorded in BENCHMARK.json):

- ``certify``: ``analyze <file> --json`` over a pool of state files with
  n = 2..8, half criterion states (constraint-surface states for n = 2, GHZ_n
  otherwise, rotated by seeded local unitaries), half Haar-random states.
- ``search``: ``search --n N --starts 4 --seed s --json --out <file>`` with N
  cycling over 3, 4, 5, 8 and a seed per op.
- ``sample``: ``sample <criterion file> --bases <xyz> --shots M --seed s
  --json`` with n = 2..8 and M alternating 10^4 and 10^6.

Each workload is a fixed pool of ops that the benchmark cycles through, so
every op is timed several times in a run and runs of any length check a
bounded set of outputs.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
FORMAT_TAG = "maxent-state/1"

# Criterion check and search tolerances the CLI uses by default.
CRITERION_TOL = 1e-9
SEARCH_TOL = 1e-12
ENTROPY_TOL = 1e-9
# Empirical means must lie within this many standard errors of the exact mean.
SAMPLE_SIGMAS = 5.0

CERTIFY_NS = tuple(range(2, 9))
CERTIFY_FILES_PER_KIND = 8
SEARCH_NS = (3, 4, 5, 8)
SEARCH_STARTS = 4
SEARCH_POOL = 512
SAMPLE_NS = tuple(range(2, 9))
SAMPLE_SHOTS = (10_000, 1_000_000)
SAMPLE_POOL = 112

WORKLOADS = ("certify", "search", "sample")
_WORKLOAD_KEY = {name: k for k, name in enumerate(WORKLOADS)}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Columns are the +1 and -1 eigenvectors of sigma_x, sigma_y, sigma_z.
_EIGENBASIS = {
    "x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _INV_SQRT2,
    "y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) * _INV_SQRT2,
    "z": np.eye(2, dtype=complex),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # "criterion" or "haar" for certify; workload name otherwise
    n: int
    amplitudes: np.ndarray | None = None  # the input state, when there is one
    bases: str = ""
    shots: int = 0
    out_path: str = ""


# ------------------------------------------------------------ states


def _haar_su2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


def _apply_site(psi: np.ndarray, n: int, site: int, u: np.ndarray) -> np.ndarray:
    """Act with a 2x2 matrix on 0-based ``site`` (site 0 most significant)."""
    cube = psi.reshape(1 << site, 2, 1 << (n - site - 1))
    return np.einsum("st,atb->asb", u, cube).reshape(-1)


def haar_state(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return z / np.linalg.norm(z)


def criterion_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """A state with all 3n local Pauli expectations zero, locally rotated.

    n = 2 draws a point of the coefficient constraint surface; larger n
    starts from GHZ_n.
    """
    if n == 2:
        r = math.sqrt(0.5 * rng.random())
        s = math.sqrt(max(0.5 - r * r, 0.0))
        alpha, beta, delta = rng.uniform(0.0, 2.0 * math.pi, size=3)
        gamma = math.pi + beta + delta - alpha
        psi = np.array(
            [
                r * np.exp(1j * alpha),
                s * np.exp(1j * beta),
                s * np.exp(1j * delta),
                r * np.exp(1j * gamma),
            ]
        )
    else:
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = psi[-1] = _INV_SQRT2
    for site in range(n):
        psi = _apply_site(psi, n, site, _haar_su2(rng))
    return psi / np.linalg.norm(psi)


def format_state(psi: np.ndarray, label: str) -> str:
    n = psi.size.bit_length() - 1
    lines = [f"format: {FORMAT_TAG}", f"n_qubits: {n}", f"label: {label}", "amplitudes:"]
    lines += [f"{float(z.real)!r} {float(z.imag)!r}" for z in psi]
    return "\n".join(lines) + "\n"


def parse_amplitudes(text: str) -> np.ndarray:
    """Amplitude rows of a ``maxent-state/1`` document."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != f"format: {FORMAT_TAG}":
        raise ValueError("not a maxent-state/1 document")
    rows = lines[lines.index("amplitudes:") + 1:]
    return np.array([complex(float(a), float(b)) for a, b in (r.split() for r in rows)])


# ------------------------------------------------------- own oracles


def local_expectations(psi: np.ndarray) -> np.ndarray:
    """(n, 3) array of <sigma_x>, <sigma_y>, <sigma_z> per site, via rho."""
    n = psi.size.bit_length() - 1
    out = np.empty((n, 3))
    for site in range(n):
        cube = psi.reshape(1 << site, 2, -1)
        rho = np.einsum("aib,ajb->ij", cube, cube.conj())
        out[site] = (2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real)
    return out


@functools.cache
def _signs(n: int) -> np.ndarray:
    """(2^n, n) outcome signs: +1 where the site's bit is 0."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def born_distribution(psi: np.ndarray, bases: str) -> np.ndarray:
    n = len(bases)
    rotated = psi
    for site, axis in enumerate(bases):
        rotated = _apply_site(rotated, n, site, _EIGENBASIS[axis].conj().T)
    return np.abs(rotated) ** 2


# --------------------------------------------------------- schedules


def _rng(seed: int, workload: str, *words: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_KEY[workload], *words])


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's input files under ``workdir``; return its schedule.

    Equal seeds give equal files and equal schedules.
    """
    if workload == "certify":
        ops = []
        for k in range(CERTIFY_FILES_PER_KIND * 2):
            kind = "criterion" if k % 2 == 0 else "haar"
            for n in CERTIFY_NS:
                rng = _rng(seed, workload, n, k)
                psi = criterion_state(n, rng) if kind == "criterion" else haar_state(n, rng)
                path = os.path.join(workdir, f"certify-n{n}-{k}.txt")
                _write(path, format_state(psi, f"{kind}-n{n}-{k}"))
                ops.append(Op(("analyze", path, "--json"), kind, n, amplitudes=psi))
        return ops
    if workload == "search":
        out_path = os.path.join(workdir, "search-best.txt")
        seeds = _rng(seed, workload).integers(0, 1 << 31, size=SEARCH_POOL)
        ops = []
        for i, op_seed in enumerate(seeds):
            n = SEARCH_NS[i % len(SEARCH_NS)]
            argv = ("search", "--n", str(n), "--starts", str(SEARCH_STARTS),
                    "--seed", str(int(op_seed)), "--json", "--out", out_path)
            ops.append(Op(argv, "search", n, out_path=out_path))
        return ops
    if workload == "sample":
        ops = []
        for i in range(SAMPLE_POOL):
            n = SAMPLE_NS[i % len(SAMPLE_NS)]
            shots = SAMPLE_SHOTS[i % len(SAMPLE_SHOTS)]
            rng = _rng(seed, workload, i)
            psi = criterion_state(n, rng)
            bases = "".join(rng.choice(list("xyz"), size=n))
            op_seed = int(rng.integers(0, 1 << 31))
            path = os.path.join(workdir, f"sample-{i}.txt")
            _write(path, format_state(psi, f"criterion-n{n}-{i}"))
            argv = ("sample", path, "--bases", bases, "--shots", str(shots),
                    "--seed", str(op_seed), "--json")
            ops.append(Op(argv, "sample", n, amplitudes=psi, bases=bases, shots=shots))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def before_op(op: Op) -> None:
    """Remove a stale output file so the check sees only this op's output."""
    if op.out_path and os.path.exists(op.out_path):
        os.remove(op.out_path)


# ------------------------------------------------------------ checks


def check(op: Op, rc: int, stdout: str) -> str | None:
    """None when the op's output is correct, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if op.argv[0] == "analyze":
        return _check_certify(op, doc)
    if op.argv[0] == "search":
        return _check_search(op, doc)
    return _check_sample(op, doc)


def _check_certify(op: Op, doc: dict) -> str | None:
    if doc["n_qubits"] != op.n or len(doc["sites"]) != op.n:
        return "wrong qubit count"
    want = op.kind == "criterion"
    if doc["criterion"]["satisfied"] != want:
        return f"verdict {doc['criterion']['satisfied']} for a {op.kind} state"
    exact = local_expectations(op.amplitudes)
    got = np.array([[s["expectations"][c] for c in "xyz"] for s in doc["sites"]])
    if np.max(np.abs(got - exact)) > CRITERION_TOL:
        return "local expectations disagree with the reference contraction"
    if want:
        worst = max(abs(s["entropy_nats"] - LN2) for s in doc["sites"])
        if worst > ENTROPY_TOL:
            return f"criterion state has an entropy {worst:.3g} away from ln 2"
    return None


def _check_search(op: Op, doc: dict) -> str | None:
    if doc["n"] != op.n or len(doc["results"]) != SEARCH_STARTS:
        return "wrong n or start count"
    try:
        with open(op.out_path, encoding="utf-8") as fh:
            psi = parse_amplitudes(fh.read())
    except (OSError, ValueError) as exc:
        return f"--out state unreadable: {exc}"
    if psi.size != 1 << op.n:
        return "--out state has the wrong size"
    e = local_expectations(psi / np.linalg.norm(psi))
    cost = float(np.sum(e * e))
    if cost > SEARCH_TOL:
        return f"--out state has cost {cost:.3g} > {SEARCH_TOL:g}"
    return None


def _check_sample(op: Op, doc: dict) -> str | None:
    shots = op.shots
    if doc["shots"] != shots or sum(doc["counts"].values()) != shots:
        return "counts do not sum to shots"
    signs = _signs(op.n)
    weights = np.zeros(1 << op.n)
    for label, c in doc["counts"].items():
        weights[int(label.replace("+", "0").replace("-", "1"), 2)] = c
    weights /= shots
    probs = born_distribution(op.amplitudes, op.bases)
    exact_site = signs.T @ probs
    exact_pair = (signs.T * probs) @ signs
    seen_site = signs.T @ weights
    seen_pair = (signs.T * weights) @ signs
    reported = [(e["site"] - 1, e["site"] - 1, e["value"]) for e in doc["expectations"]]
    reported += [
        (c["sites"][0] - 1, c["sites"][1] - 1, c["product_mean"]) for c in doc["correlations"]
    ]
    if len(reported) != op.n + op.n * (op.n - 1) // 2:
        return "wrong number of reported means"
    for i, j, value in reported:
        exact = exact_site[i] if i == j else exact_pair[i, j]
        seen = seen_site[i] if i == j else seen_pair[i, j]
        where = f"mean at sites {i + 1},{j + 1}"
        # 1e-12 absorbs rounding; the means are ratios of integer counts.
        if abs(value - seen) > 1e-12:
            return f"{where} disagrees with the reported counts"
        se = math.sqrt(max(1.0 - exact * exact, 0.0) / shots)
        if abs(value - exact) > SAMPLE_SIGMAS * se + 1e-12:
            return f"{where} is {abs(value - exact):.3g} from exact, std err {se:.3g}"
    return None
