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
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_QUBITS
from .measurement import _local_expectations_raw
from .states import State

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


def haar_random_state(n: int, seed) -> State:
    """Uniformly random n-qubit state: complex Gaussian vector, normalized."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    rng = np.random.default_rng(seed)
    dim = 1 << n
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return State(n_qubits=n, amplitudes=z / np.linalg.norm(z))


def haar_random_su2(seed) -> np.ndarray:
    """Haar-random 2x2 special unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, upper = np.linalg.qr(z)
    phases = np.diagonal(upper).copy()
    phases /= np.abs(phases)
    q = q * phases
    return q / np.sqrt(np.linalg.det(q))


def _residuals_jacobian(psi: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The 3n residuals e (the expectations, site-major) and their Jacobian.

    Row k of the complex W is 2(sigma_k psi - e_k psi)/<psi|psi>, the
    gradient of e_k packed like cost_gradient_raw. It is returned viewed as
    float64: the real Jacobian J in interleaved (Re, Im) coordinates, so
    J J^T = Re(W W^H) and J^T y viewed as complex is W^T y. Real products
    also keep these small matrices off multithreaded complex BLAS calls.
    """
    e = _local_expectations_raw(psi, n_qubits).ravel()
    w = np.empty((3 * n_qubits, psi.size), dtype=complex)
    for site in range(n_qubits):
        a = psi.reshape(1 << site, 2, -1)
        flip = a[:, ::-1]
        # sigma_x, sigma_y, sigma_z applied to the site's bit
        v = w[3 * site : 3 * site + 3].reshape(3, *a.shape)
        v[0], v[1], v[2] = flip, flip * [[-1j], [1j]], a * [[1.0], [-1.0]]
    w -= e[:, None] * psi
    w *= 2.0 / np.vdot(psi, psi).real
    return e, w.view(np.float64)


def cost_raw(psi: np.ndarray, n_qubits: int) -> float:
    """Sum of squared local expectations, Rayleigh-normalized."""
    e = _local_expectations_raw(psi, n_qubits)
    return float(np.sum(e * e))


def cost(state: State) -> float:
    """Sum over all sites and axes of the squared local Pauli expectation.

    Zero exactly on the maximally entangled states; at most n overall.
    """
    return cost_raw(state.amplitudes, state.n_qubits)


def cost_gradient_raw(psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """Gradient of cost_raw in real coordinates, packed as a complex vector.

    Entry j holds d cost/d Re(psi_j) + i d cost/d Im(psi_j); this is 2 e^T W
    from the kernel the optimizer steps with. Because the cost is
    Rayleigh-normalized the gradient is automatically tangent to both the
    radial and the global-phase directions on the unit sphere.
    """
    e, jac = _residuals_jacobian(psi, n_qubits)
    return 2.0 * (e @ jac).view(np.complex128)


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
    trace: list | None = None,
) -> SearchOutcome:
    """Descend the cost over the unit sphere from a given state.

    Each iteration takes the damped Gauss-Newton step -J^T (J J^T + mu I)^-1 e
    on the 3n residuals and renormalizes, accepting only a strict cost
    decrease, so iterates are monotone and the last is the best. When no
    damped step helps (exact critical point, where J^T e = 0, or rounding),
    seeded random tangent kicks are tried under the same rule; if all fail
    the run stops "stuck". Running out of max_iter is not an error either.
    A list passed as trace collects the cost of every accepted iterate.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    n = initial.n_qubits
    psi = initial.amplitudes.copy()
    current = cost_raw(psi, n)
    rng = np.random.default_rng(seed)
    iterations = escapes = 0
    evals = 1
    if trace is not None:
        trace.append(current)
    while current > tol and iterations < max_iter:
        for cand, kicked in _candidates(psi, n, rng):
            c = cost_raw(cand, n)
            evals += 1
            if c < current:
                break
        else:
            break
        psi, current = cand, c
        escapes += kicked
        iterations += 1
        if trace is not None:
            trace.append(current)
    return SearchOutcome(
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


def _candidates(psi: np.ndarray, n_qubits: int, rng):
    """Yield (unit candidate, is_kick): damped Gauss-Newton steps, then kicks.

    The damping mu starts at 0 and after each rejected step becomes
    max(1e-3 tr(J J^T)/3n, 10 mu); kicks are random tangent directions.
    """
    e, jac = _residuals_jacobian(psi, n_qubits)
    jjt = jac @ jac.T
    floor = _DAMPING_FLOOR * np.trace(jjt) / e.size
    mu = 0.0
    for _ in range(_DAMPING_TRIES):
        try:
            y = np.linalg.solve(jjt + mu * np.eye(e.size), e)
        except np.linalg.LinAlgError:  # exactly singular J J^T, only at mu = 0
            pass
        else:
            cand = psi - (y @ jac).view(np.complex128)
            yield cand / np.linalg.norm(cand), False
        mu = max(floor, 10.0 * mu)
    for _ in range(_ESCAPE_DIRECTIONS):
        d = rng.standard_normal(psi.size) + 1j * rng.standard_normal(psi.size)
        d -= np.vdot(psi, d) * psi
        d /= np.linalg.norm(d)
        for eps in _ESCAPE_SIZES:
            cand = psi + eps * d
            yield cand / np.linalg.norm(cand), True


def multi_start(
    n: int,
    starts: int,
    tol: float,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SearchOutcome]:
    """Independent optimizer runs from random starts, best (lowest cost) first.

    Per-start seeds are derived words of a single seed sequence, so the
    result is identical however the starts are scheduled.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    words = np.random.SeedSequence(seed).generate_state(starts, dtype=np.uint64)
    outcomes = []
    for word in words:
        start_seed = int(word)
        initial = haar_random_state(n, start_seed)
        outcomes.append(optimize(initial, tol, max_iter=max_iter, seed=start_seed))
    outcomes.sort(key=lambda o: o.final_cost)
    return outcomes
