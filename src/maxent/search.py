"""Constructing maximally entangled states: exact 2-qubit parametrization
and a numerical optimizer for any qubit count.

The cost function is the sum of squared local Pauli expectations; its zero
set is exactly the maximally entangled states. The 3n expectations are the
residuals of an underdetermined least-squares problem, so the optimizer takes
damped (Levenberg-Marquardt) minimum-norm Gauss-Newton steps and retracts
onto the unit sphere by renormalizing, plus seeded random tangent kicks to
leave exact critical points such as product states (which are flat maxima)
and saddles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import _check_n, _norm
from .measurement import _images
from .states import State, _unit

_HALF = 0.5
_R_SLACK = 1e-12
_BRANCH_TOL = 1e-9
_DAMPING_TRIES = 8
_DAMPING_FLOOR = 1e-3
_ESCAPE_DIRECTIONS = 32
_ESCAPE_SIZES = (0.25, 0.05, 0.01, 1e-3)

DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class ConstraintParams:
    """Coordinates on the 2-qubit maximally entangled manifold.

    r is the shared modulus of the diagonal amplitudes, in [0, 1/sqrt(2)];
    alpha, beta, delta are the phases of a11, a12, a21. The off-diagonal
    modulus s and the phase gamma of a22 are determined: s = sqrt(1/2 - r^2)
    and gamma = branch + beta + delta - alpha mod 2 pi, with branch = +-pi.
    """

    r: float
    alpha: float = 0.0
    beta: float = 0.0
    delta: float = 0.0
    branch: float = math.pi

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= math.sqrt(_HALF) + _R_SLACK:
            raise ValueError(f"r must be in [0, 1/sqrt(2)], got {self.r}")
        if abs(abs(self.branch) - math.pi) > _BRANCH_TOL:
            raise ValueError(f"branch must be +pi or -pi, got {self.branch}")

    @property
    def s(self) -> float:
        rem = _HALF - self.r * self.r
        # The float nearest 1/sqrt(2) squares to 1/2 +- one ulp; the sqrt
        # would blow that ulp up to ~1e-8, so treat the corner as exact.
        if rem < 4.0 * math.ulp(_HALF):
            return 0.0
        return math.sqrt(rem)

    @property
    def gamma(self) -> float:
        raw = self.branch + self.beta + self.delta - self.alpha
        return math.remainder(raw, 2.0 * math.pi)


def generate_constrained(params: ConstraintParams) -> State:
    """Exact maximally entangled 2-qubit state from constraint coordinates.

    Entries of modulus zero are emitted as exact zeros, so degenerate
    parameter choices (r = 0 or r = 1/sqrt(2)) produce canonical files.
    """
    r, s = params.r, params.s
    a11 = r * complex(math.cos(params.alpha), math.sin(params.alpha)) if r > 0.0 else 0.0j
    a22 = r * complex(math.cos(params.gamma), math.sin(params.gamma)) if r > 0.0 else 0.0j
    a12 = s * complex(math.cos(params.beta), math.sin(params.beta)) if s > 0.0 else 0.0j
    a21 = s * complex(math.cos(params.delta), math.sin(params.delta)) if s > 0.0 else 0.0j
    return State(n_qubits=2, amplitudes=np.array([a11, a12, a21, a22]))


def random_constraint_params(seed) -> ConstraintParams:
    """Draw constraint coordinates: r^2 uniform on [0, 1/2], phases uniform."""
    rng = np.random.default_rng(seed)
    r = math.sqrt(_HALF * rng.random())
    alpha, beta, delta = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return ConstraintParams(r=r, alpha=alpha, beta=beta, delta=delta)


def _haar_direction(n: int, seed) -> np.ndarray:
    """z / |z| for a complex Gaussian z of 2^n entries drawn from the seed."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / _norm(z)


def haar_random_state(n: int, seed) -> State:
    """Uniformly random n-qubit state: complex Gaussian vector, normalized."""
    n = _check_n(n)
    return State(n_qubits=n, amplitudes=_haar_direction(n, seed))


def haar_random_su2(seed) -> np.ndarray:
    """Haar-random 2x2 special unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, upper = np.linalg.qr(z)
    phases = np.diagonal(upper).copy()
    phases /= np.abs(phases)
    q = q * phases
    return q / np.sqrt(np.linalg.det(q))


def _jacobian(psi: np.ndarray, nn, images: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The Jacobian of the residuals e, made in place from the images.

    Row k of the complex W is 2(sigma_k psi - e_k psi)/<psi|psi>, the
    gradient of e_k packed like cost_gradient_raw. It is returned viewed as
    float64: the real Jacobian J in interleaved (Re, Im) coordinates, so
    J J^T = Re(W W^H) and J^T y viewed as complex is W^T y. Real products
    also keep these small matrices off multithreaded complex BLAS calls.
    """
    images -= e[..., None] * psi[..., None, :]
    images *= (2.0 / nn)[..., None]
    return images.view(np.float64)


def cost_raw(psi: np.ndarray, n_qubits: int) -> float:
    """Sum of squared local expectations, Rayleigh-normalized.

    Zero exactly on the maximally entangled states; at most n overall.
    """
    e = _images(psi, n_qubits)[2]
    return float((e * e).sum())


def cost_gradient_raw(psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """Gradient of cost_raw in real coordinates, packed as a complex vector.

    Entry j holds d cost/d Re(psi_j) + i d cost/d Im(psi_j); this is 2 e^T W
    from the kernel the optimizer steps with. Because the cost is
    Rayleigh-normalized the gradient is automatically tangent to both the
    radial and the global-phase directions on the unit sphere.
    """
    nn, images, e = _images(psi, n_qubits)
    return 2.0 * (e @ _jacobian(psi, nn, images, e)).view(np.complex128)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one optimizer run; converged means final_cost <= tol.

    stop_reason is "converged", "max_iter" (iterations ran out first) or
    "stuck" (no damped step and no escape kick lowered the cost). cost_evals
    counts cost evaluations, the start included; escapes counts the
    iterations that moved by a random kick.
    """

    state: State
    final_cost: float
    iterations: int
    converged: bool
    seed: int
    stop_reason: str
    cost_evals: int
    escapes: int


def optimize(
    initial: State,
    tol: float,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> SearchOutcome:
    """Descend the cost over the unit sphere from a given state.

    Each iteration takes the damped Gauss-Newton step -J^T (J J^T + mu I)^-1 e
    on the 3n residuals and renormalizes, accepting only a strict cost
    decrease, so iterates are monotone and the last is the best. When no
    damped step helps (exact critical point, where J^T e = 0, or rounding),
    seeded random tangent kicks are tried under the same rule; if all fail
    the run stops "stuck". Running out of max_iter is not an error either.
    max_iter and the seed must be non-negative integers; the kick generator
    is built from the seed only when a first kick is needed.
    """
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _descend(initial.n_qubits, [initial.amplitudes], tol, max_iter, [seed])[0]


@dataclass(slots=True)
class _Run:
    """One start's iterate and counters while a batch descends."""

    seed: int
    psi: np.ndarray
    cost: float
    iterations: int = 0
    escapes: int = 0
    evals: int = 1
    rng: np.random.Generator | None = None
    stuck: bool = False

    def offer(self, cand: np.ndarray, cost: float, kicked: bool) -> bool:
        """Count one cost evaluation; take the candidate if it lowers the cost."""
        self.evals += 1
        if not cost < self.cost:
            return False
        self.psi, self.cost = cand, cost
        self.iterations += 1
        self.escapes += kicked
        return True


def _descend(n: int, starts, tol: float, max_iter: int, seeds) -> list[SearchOutcome]:
    """Run :func:`optimize` from every start at once, in lockstep.

    Each round stacks the live starts and makes one Jacobian, one J J^T
    product and one mu = 0 solve for all of them, then costs every first
    candidate by one gather; an accepted candidate's images and
    expectations are the next round's. A start whose first candidate
    fails, or whose J J^T is exactly singular (numpy's stacked solve then
    raises for the whole stack, so the round goes start by start), finishes
    its iteration alone on the damping ladder and the kicks. Every slice
    runs the same BLAS and LAPACK calls as a single start would, so each
    outcome is bit-identical to optimize's on that start alone.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    max_iter = operator.index(max_iter)
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    x = np.array(starts, dtype=np.complex128)
    nn, images, e = _images(x, n)
    runs = [_Run(seed, psi, c) for seed, psi, c in zip(seeds, x, (e * e).sum(axis=1).tolist())]
    live, stacked = runs, True
    while True:
        still = [r for r in live if r.cost > tol and r.iterations < max_iter and not r.stuck]
        if not still:
            break
        if not stacked or len(still) < len(live):
            x = np.array([r.psi for r in still])
            nn, images, e = _images(x, n)
        live = still
        jac = _jacobian(x, nn, images, e)
        jjt = jac @ jac.transpose(0, 2, 1)
        try:
            y = np.linalg.solve(jjt, e[..., None])
        except np.linalg.LinAlgError:
            # Raised for the whole stack: each start retries its own mu = 0 step.
            tried, taken = False, [False] * len(live)
        else:
            tried = True
            cand = x - (y.transpose(0, 2, 1) @ jac)[:, 0].view(np.complex128)
            re, im = cand.real, cand.imag
            cand /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
            cand_nn, cand_images, cand_e = _images(cand, n)
            costs = (cand_e * cand_e).sum(axis=1).tolist()
            taken = [r.offer(c, cost, False) for r, c, cost in zip(live, cand, costs)]
        for k, r in enumerate(live):
            if not taken[k]:
                tail = _candidates(r, x[k], e[k], jac[k], jjt[k], tried)
                r.stuck = not any(r.offer(c, cost_raw(c, n), kicked) for c, kicked in tail)
        # When every start took its batched candidate, its images are the next round's.
        stacked = all(taken)
        if stacked:
            x, nn, images, e = cand, cand_nn, cand_images, cand_e
    return [
        SearchOutcome(
            state=State(n_qubits=n, amplitudes=r.psi),
            final_cost=r.cost,
            iterations=r.iterations,
            converged=r.cost <= tol,
            seed=r.seed,
            stop_reason=(
                "converged" if r.cost <= tol
                else "max_iter" if r.iterations == max_iter
                else "stuck"
            ),
            cost_evals=r.evals,
            escapes=r.escapes,
        )
        for r in runs
    ]


def _candidates(run, psi, e, jac, jjt, tried):
    """One start's candidates after its batched step failed, as (candidate, kicked).

    First the damped steps: mu starts at 0 and after each step becomes
    max(1e-3 tr(J J^T)/3n, 10 mu); the mu = 0 step is skipped when the batch
    already tried it. Then the kicks: random tangent directions from the
    start's own generator, built at its first kick.
    """
    floor = _DAMPING_FLOOR * np.trace(jjt) / e.size
    mu = 0.0
    for t in range(_DAMPING_TRIES):
        if t or not tried:
            try:
                y = np.linalg.solve(jjt + mu * np.eye(e.size), e)
            except np.linalg.LinAlgError:  # exactly singular J J^T, only at mu = 0
                pass
            else:
                cand = psi - (y @ jac).view(np.complex128)
                yield cand / _norm(cand), False
        mu = max(floor, 10.0 * mu)
    if run.rng is None:
        run.rng = np.random.default_rng(run.seed)
    rng = run.rng
    for _ in range(_ESCAPE_DIRECTIONS):
        d = rng.standard_normal(psi.size) + 1j * rng.standard_normal(psi.size)
        d -= np.vdot(psi, d) * psi
        d /= _norm(d)
        for eps in _ESCAPE_SIZES:
            cand = psi + eps * d
            yield cand / _norm(cand), True


# Bytes of Pauli images one lockstep batch may hold: 48 n 2^n per start, so
# every start of a 4-start search up to n = 6 (7 per batch there), 3 starts
# at n = 7 and one at a time at n = 8. One n = 8 start's images (96 KiB) stay
# under glibc's default 128 KiB mmap threshold; 4 starts per batch (384 KiB)
# go to fresh mmaps, 358 minor page faults per n = 8 op against 0.1 at 128
# KiB, and each n = 8 search op ran 21% slower (2668 -> 3234 us median, in a
# plain in-process loop over the search benchmark's pool). The benchmark's
# best-of-N op times mostly hide the faults: its p90 read 3-9% lower at 4
# starts per batch in 4 of 4 pairs.
_IMAGE_BUDGET = 128 << 10


def multi_start(
    n: int,
    starts: int,
    tol: float,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SearchOutcome]:
    """Independent optimizer runs from random starts, best (lowest cost) first.

    Per-start seeds are derived words of a single seed sequence, so the
    result is identical however the starts are scheduled. The starts descend
    in lockstep batches of as many as fit the image budget (3n complex
    images of 2^n amplitudes each). starts, seed and max_iter must be
    integers, as for :func:`optimize`.
    """
    if operator.index(starts) < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = _check_n(n)
    words = np.random.SeedSequence(seed).generate_state(starts, dtype=np.uint64)
    seeds = [int(word) for word in words]
    initial = [_unit(_haar_direction(n, s)) for s in seeds]
    batch = max(1, _IMAGE_BUDGET // (48 * n << n))
    outcomes = []
    for lo in range(0, starts, batch):
        outcomes += _descend(n, initial[lo:lo + batch], tol, max_iter, seeds[lo:lo + batch])
    outcomes.sort(key=lambda o: o.final_cost)
    return outcomes
