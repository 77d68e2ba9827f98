"""Span tracing of ``maxent`` from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
span wrapper, at every module-global binding in the package that refers to
it, so intra-module calls and ``from .x import y`` calls are both caught.
Spans (function, start, end, parent span, op id) are kept in flat arrays in
memory and summarised or saved after the run. A span's self time is its
duration minus the time covered by its child spans; calls are synchronous
and single-threaded, so children never overlap and their coverage is the sum
of their durations.

Private helpers, methods and dataclass constructors are not wrapped; their
time counts as self time of the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "statefile", "states", "linalg", "measurement", "entanglement", "search")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Per-call quantities recorded alongside the span.
QUANTITIES = {
    # Bytes of the complex128 input and output vectors one call touches.
    "linalg.apply_single_site": lambda a, k: float(32 << int(_arg(a, k, 1, "n_qubits"))),
    "measurement.sample_outcomes": lambda a, k: float(_arg(a, k, 2, "shots")),
}


class Tracer:
    """Owns the span arrays and the wrappers installed into ``maxent``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.quantity = array("d")
        self.op_id = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, func, quantity):
        start, end, fns, parent, ops, qty = (
            self.start, self.end, self.fn, self.parent, self.op, self.quantity,
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            idx = len(start)
            fns.append(fid)
            parent.append(stack[-1])
            ops.append(tracer.op_id)
            qty.append(quantity(args, kwargs) if quantity else 0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        """Wrap every public function of each layer module in place."""
        package = sys.modules["maxent"]
        modules = [package] + [sys.modules[f"maxent.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in sorted(vars(module).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    qualified = f"{layer}.{name}"
                    self.names.append(qualified)
                    wrappers[id(obj)] = self._wrap(
                        len(self.names) - 1, obj, QUANTITIES.get(qualified)
                    )
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {
            "fn": np.array(self.fn, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "start": start,
            "end": end,
            "self": dur - covered,
            "quantity": np.array(self.quantity, dtype=np.float64),
        }

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, self_s, total_s and summed quantity for every wrapped function."""
        a = self.arrays()
        size = len(self.names)
        calls = np.bincount(a["fn"], minlength=size)
        self_s = np.bincount(a["fn"], weights=a["self"], minlength=size)
        total_s = np.bincount(a["fn"], weights=a["end"] - a["start"], minlength=size)
        quantity = np.bincount(a["fn"], weights=a["quantity"], minlength=size)
        return {
            name: {
                "calls": int(calls[k]),
                "self_s": float(self_s[k]),
                "total_s": float(total_s[k]),
                "quantity": float(quantity[k]),
            }
            for k, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span, with the function-name table, as an .npz file."""
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)
