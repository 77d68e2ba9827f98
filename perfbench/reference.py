"""A fixed reference kernel that tracks the host's speed during a run.

The benchmark shares a small machine with other tenants, whose load slows
every process on it by up to about 1.8x for tens of seconds at a time; the
best of several repetitions of an op does not escape such a phase. The
closed loop therefore times this kernel every ``EVERY_S`` seconds between
ops, and each op's time is scaled by ``NOMINAL_S`` over the kernel time
within ``WINDOW_S`` of the op. The result reads as the op's time at the host
speed in which the kernel takes ``NOMINAL_S``.

Which kernel time is used depends on what the op time measures. An op timed
many times is reported by its best time, which catches the host's fastest
moments, so it is scaled by the kernel's best time nearby (``floor=True``).
An op timed about once averages the host's speed over its duration, so it is
scaled by the kernel's median time nearby.

The kernel does the same kind of work as the program (small complex
contractions, inner products, Python arithmetic, a sorted search) on fixed
data and never calls ``maxent``, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest kernel time seen on the reference host
# (2-CPU Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
NOMINAL_S = 0.57e-3
EVERY_S = 0.05
WINDOW_S = 1.0

_STATE = (np.linspace(-1.0, 1.0, 256) + 0.5j).reshape(16, 2, 8)
_OP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_CUM = np.linspace(1.0 / 4096, 1.0, 4096)
_DRAWS = np.random.default_rng(0).random(4096)


def kernel() -> float:
    acc = 0.0
    for _ in range(20):
        acc += float(np.einsum("st,atb->asb", _OP, _STATE).real.sum())
        acc += float(np.vdot(_STATE[:, 0, :], _STATE[:, 1, :]).real)
        acc += sum(k * k for k in range(40))
    acc += float(np.searchsorted(_CUM, _DRAWS).sum())
    return acc


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scales(op_end: list[float], ref_at: list[float], ref_s: list[float], floor: bool) -> np.ndarray:
    """Per-op factor NOMINAL_S / (best or median kernel time within WINDOW_S of the op)."""
    stat = np.min if floor else np.median
    at = np.asarray(ref_at)
    took = np.asarray(ref_s)
    ends = np.asarray(op_end)
    lo = np.searchsorted(at, ends - WINDOW_S / 2, side="left")
    hi = np.searchsorted(at, ends + WINDOW_S / 2, side="right")
    nearest = np.clip(np.searchsorted(at, ends), 0, at.size - 1)
    local = np.array([
        stat(took[a:b]) if b > a else took[k] for a, b, k in zip(lo, hi, nearest)
    ])
    return NOMINAL_S / local
