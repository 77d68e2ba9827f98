"""End-to-end and per-layer benchmark of the ``maxent`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare old.json new.json

One client drives ``maxent.cli.main(argv)`` in-process in a closed loop (the
next op starts when the previous one returns), with stdout captured and
BLAS/OpenMP pinned to one thread. Inputs come from ``--seed`` only. Every op's
output is checked by ``workloads.check``; wrong outputs, non-zero exits and
exceptions count as failed ops and do not stop the run.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json. Each
workload is a pool of ops cycled for the whole run; op times are scaled to
the reference host speed (``reference``) and each pool op's best time is
used, because the shared host's speed drifts by tens of percent.
``--trace 1`` first replays the op schedule untraced for half of
``--seconds``, then replays the same ops with span wrappers installed
(``tracing.Tracer``) and reports the ``per_layer`` metrics, normalised per
op, plus the tracing overhead measured on that identical work.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it are a readable
report that also names the host (CPU count, Python, numpy) and gives the
unscaled times. Compare medians of several runs (``--save`` collects them,
``--compare`` prints deltas against the bounds).
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")

# Set-up is timed in fresh interpreters this many times; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# Pool ops timed at least this many times are scaled floor to floor.
FLOOR_REPEATS = 4
SELFTEST_SEED = 12345
SELFTEST_OPS = {"certify": 14, "search": 8, "sample": 14}
NOISE_NOTE = (
    "the reference host has 2 CPUs shared with other tenants, so timings are "
    "noisy; compare medians of several runs"
)


def _import_program():
    """Import ``maxent.cli`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "maxent", "cli.py")):
        raise SystemExit(f"error: no maxent sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import maxent.cli

    if not os.path.abspath(maxent.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported maxent from {maxent.cli.__file__}, not {SRC}")
    return maxent.cli


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "note": NOISE_NOTE,
    }


# ------------------------------------------------------------ loop


class Run:
    """Per-op measurements of one pass of the closed loop."""

    def __init__(self) -> None:
        self.latency_s: list[float] = []
        self.cpu_s: list[float] = []
        self.failures: list[str] = []
        self.outputs: list[str] = []
        self.end_at: list[float] = []
        # When the reference kernel ran, and how long it took.
        self.ref_at: list[float] = []
        self.ref_s: list[float] = []
        # (n, iterations, converged) of every search start, in op order.
        self.starts: list[tuple[int, int, bool]] = []

    @property
    def ops(self) -> int:
        return len(self.latency_s)

    def best_scaled(self, values: list[float], pool: int) -> np.ndarray:
        """Each pool op's best time, at the reference host speed (see ``reference``)."""
        floor = self.ops >= FLOOR_REPEATS * pool
        factor = reference.scales(self.end_at, self.ref_at, self.ref_s, floor)
        return best_per_op(np.asarray(values) * factor, pool)


def closed_loop(main, ops, seconds=None, count=None, tracer=None, keep_output=False) -> Run:
    """Run ops back to back until ``seconds`` of wall time pass or ``count`` ops ran."""
    run = Run()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = 0
    next_ref = 0.0
    while True:
        now = time.perf_counter()
        if now >= next_ref:
            run.ref_s.append(reference.timed_kernel())
            run.ref_at.append(now)
            next_ref = now + reference.EVERY_S
        op = ops[i % len(ops)]
        workloads.before_op(op)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = i
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is one failed op; the loop goes on
            rc = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        text = out.getvalue()
        reason = workloads.check(op, rc, text) if isinstance(rc, int) else rc
        run.latency_s.append(t1 - t0)
        run.cpu_s.append(c1 - c0)
        run.end_at.append(t1)
        if reason is not None:
            run.failures.append(f"op {i} ({' '.join(op.argv[:2])}): {reason}")
        elif op.argv[0] == "search":
            for start in json.loads(text)["results"]:
                run.starts.append((op.n, start["iterations"], start["converged"]))
        if keep_output:
            run.outputs.append(text + err.getvalue())
        i += 1
        if count is not None and i >= count:
            return run
        if deadline is not None and t1 >= deadline:
            return run


# --------------------------------------------------------- metrics


def best_per_op(values: np.ndarray, pool: int) -> np.ndarray:
    """Each pool entry's smallest value over its repetitions in the run.

    Entries that never ran are left out.
    """
    best = np.full(pool, np.inf)
    np.minimum.at(best, np.arange(len(values)) % pool, values)
    return best[np.isfinite(best)]


def end_to_end_metrics(run: Run, pool: int, setup_samples: list[float]) -> dict:
    best_ms = run.best_scaled(run.latency_s, pool) * 1e3
    p50, p90 = np.percentile(best_ms, [50, 90])
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": 1e3 * best_ms.size / float(np.sum(best_ms)),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "cpu_ms_per_op": 1e3 * float(np.mean(run.best_scaled(run.cpu_s, pool))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(tracer, traced: Run, untraced: Run, pool: int) -> dict:
    """Per-op layer numbers from the traced pass; see BENCHMARK.json for units."""
    fns = tracer.per_function()
    ops = traced.ops
    metrics = {}
    for layer in tracing.LAYERS:
        rows = [v for k, v in fns.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = sum(r["calls"] for r in rows) / ops
        metrics[f"{layer}.self_s"] = sum(r["self_s"] for r in rows) / ops
    for name in ("measurement.local_expectation", "linalg.apply_single_site",
                 "linalg.partial_trace_single_site", "states.from_amplitudes",
                 "search.cost_raw", "search.cost_gradient_raw"):
        metrics[f"{name}.calls"] = fns[name]["calls"] / ops
    for name in ("measurement.local_expectation", "measurement.correlation_matrix",
                 "entanglement.criterion_check", "entanglement.reduced_entropy",
                 "entanglement.commutator_defect", "measurement.sample_outcomes",
                 "measurement.born_probabilities", "statefile.read_state_file",
                 "statefile.format_state"):
        metrics[f"{name}.self_s"] = fns[name]["self_s"] / ops
    metrics["linalg.apply_single_site.bytes_computed"] = (
        fns["linalg.apply_single_site"]["quantity"] / ops
    )
    sampler = fns["measurement.sample_outcomes"]
    metrics["measurement.sample_outcomes.shots_per_s"] = (
        sampler["quantity"] / sampler["total_s"] if sampler["calls"] else 0.0
    )
    metrics["measurement.estimators.self_s"] = sum(
        fns[f"measurement.{name}"]["self_s"]
        for name in ("empirical_expectation", "empirical_correlation", "mutual_information")
    ) / ops
    for n in workloads.SEARCH_NS:
        iters = [it for m, it, _ in traced.starts if m == n]
        metrics[f"search.optimize.iterations_p50.n{n}"] = _percentile(iters, 50)
        metrics[f"search.optimize.iterations_p90.n{n}"] = _percentile(iters, 90)
        metrics[f"search.optimize.iterations_max.n{n}"] = float(max(iters, default=0))
    metrics["search.cost_evals_per_iteration"] = _cost_evals_per_iteration(fns, traced)
    metrics["search.optimize.converged_ratio"] = (
        sum(c for _, _, c in traced.starts) / len(traced.starts) if traced.starts else 0.0
    )
    # Traced ops_per_s over untraced ops_per_s on the identical op sequence.
    metrics["trace.overhead_ratio"] = float(
        np.sum(untraced.best_scaled(untraced.latency_s, pool))
        / np.sum(traced.best_scaled(traced.latency_s, pool))
    )
    return metrics


def _cost_evals_per_iteration(fns: dict, run: Run) -> float:
    iterations = sum(it for _, it, _ in run.starts)
    return fns["search.cost_raw"]["calls"] / iterations if iterations else 0.0


def deterministic_counts(tracer, run: Run) -> dict:
    """Counts that must repeat exactly for equal seeds and equal op counts."""
    fns = tracer.per_function()
    return {
        "calls": {k: v["calls"] for k, v in fns.items()},
        "quantities": {k: v["quantity"] for k, v in fns.items() if v["quantity"]},
        "iterations": [it for _, it, _ in run.starts],
        "cost_evals_per_iteration": _cost_evals_per_iteration(fns, run),
    }


# ------------------------------------------------------------ modes


def _prepare(workload: str, seed: int, workdir: str):
    """Import the program, write the inputs and run one warm-up op.

    A wrong warm-up output is not an error here: the measured loop runs and
    counts that op again.
    """
    cli = _import_program()
    os.makedirs(workdir)
    ops = workloads.build_ops(workload, seed, workdir)
    closed_loop(cli.main, ops, count=1)
    return cli, ops


def _time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of the whole set-up, interpreter start included, in fresh processes.

    Each sample is scaled to the reference host speed by the kernel timings
    taken just before and after it.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
        refs = [reference.timed_kernel() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr.strip()}")
        refs += [reference.timed_kernel() for _ in range(3)]
        samples.append(took * reference.NOMINAL_S / statistics.median(refs))
    return samples


def _workdir() -> str:
    return os.path.join(WORK_ROOT, str(os.getpid()))


def measure(args) -> int:
    bench = _load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    setup_samples = [] if args.trace else _time_setups(args.workload, args.seed)
    workdir = _workdir()
    try:
        cli, ops = _prepare(args.workload, args.seed, workdir)
        if args.trace:
            untraced = closed_loop(cli.main, ops, seconds=args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = closed_loop(cli.main, ops, count=untraced.ops, tracer=tracer)
            finally:
                tracer.uninstall()
            os.makedirs(SPAN_DIR, exist_ok=True)
            span_path = os.path.join(SPAN_DIR, f"spans-{args.workload}.npz")
            tracer.save(span_path)
            metrics = per_layer_metrics(tracer, traced, untraced, len(ops))
            runs = [untraced, traced]
        else:
            run = closed_loop(cli.main, ops, seconds=args.seconds)
            metrics = end_to_end_metrics(run, len(ops), setup_samples)
            runs = [run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         f"disagree with BENCHMARK.json {kind}")
    attempted = sum(r.ops for r in runs)
    failures = [f for r in runs for f in r.failures]
    env = environment()
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
        "host nproc {nproc} python {python} numpy {numpy}; {note}".format(**env),
        f"ops attempted {attempted} failed {len(failures)} "
        f"fail_ratio {len(failures) / attempted:.6g}",
    ]
    lines += [f"failure: {f}" for f in failures[:20]]
    if args.trace:
        lines.append(f"traced ops {traced.ops}; spans saved to {span_path}")
    else:
        raw_ms = best_per_op(np.asarray(run.latency_s), len(ops)) * 1e3
        lines += [
            "setup samples (s, scaled): " + " ".join(f"{s:.4f}" for s in setup_samples),
            f"latency samples: {min(run.ops, len(ops))} distinct pool ops, timed "
            f"{run.ops / len(ops):.2f} times each on average; metrics use each op's best time",
            f"reference kernel: {len(run.ref_s)} timings, median "
            f"{statistics.median(run.ref_s) * 1e3:.4f} ms against "
            f"{reference.NOMINAL_S * 1e3:.4f} ms nominal",
            f"unscaled: ops_per_s {1e3 * raw_ms.size / raw_ms.sum():.6g} "
            f"latency_p50_ms {np.percentile(raw_ms, 50):.6g} "
            f"latency_p90_ms {np.percentile(raw_ms, 90):.6g}",
            "latency_p99_ms is not reported: a pool has fewer than 1000 ops",
        ]
    lines += [f"metric {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.save:
        _save(args, env, result)
    print(json.dumps(result))
    return 0


def setup_only(args) -> int:
    workdir = _workdir()
    try:
        _prepare(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def selftest(args) -> int:
    """Equal seeds give equal counts; tracing changes no output byte."""
    cli = _import_program()
    bench = _load_benchmark()
    problems = []
    workdir = _workdir()
    try:
        for workload in workloads.WORKLOADS:
            wdir = os.path.join(workdir, workload)
            os.makedirs(wdir)
            ops = workloads.build_ops(workload, SELFTEST_SEED, wdir)
            count = SELFTEST_OPS[workload]
            plain = closed_loop(cli.main, ops, count=count, keep_output=True)
            counts = []
            for _ in range(2):
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = closed_loop(cli.main, ops, count=count, tracer=tracer,
                                         keep_output=True)
                finally:
                    tracer.uninstall()
                counts.append(deterministic_counts(tracer, traced))
                if traced.outputs != plain.outputs:
                    problems.append(f"{workload}: traced output differs from untraced output")
            if counts[0] != counts[1]:
                problems.append(f"{workload}: counts differ between equal-seed runs")
            failures = plain.failures + traced.failures
            problems += [f"{workload}: {f}" for f in failures]
            layer_calls = {
                layer: sum(v for k, v in counts[0]["calls"].items() if k.startswith(layer + "."))
                for layer in tracing.LAYERS
            }
            print(f"selftest {workload}: {count} ops, layer calls {layer_calls}, "
                  f"cost_evals_per_iteration {counts[0]['cost_evals_per_iteration']:.6g}")
            if workload == "search":
                metrics = per_layer_metrics(tracer, traced, plain, len(ops))
                wanted = {m["name"] for m in bench["per_layer"]}
                if set(metrics) != wanted:
                    problems.append(f"per_layer names differ: {sorted(set(metrics) ^ wanted)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"selftest problem: {p}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


# ---------------------------------------------------- save / compare


def _save(args, env: dict, result: dict) -> None:
    """Append this run to a JSON list of results."""
    runs = []
    if os.path.exists(args.save):
        with open(args.save, encoding="utf-8") as fh:
            runs = json.load(fh)
    runs.append({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "env": env, **result})
    with open(args.save, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)


def compare(old_path: str, new_path: str) -> int:
    """Print each metric's median delta per workload against its bound."""
    bench = _load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    docs = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    for label, runs in zip(("old", "new"), docs):
        envs = {json.dumps(r["env"], sort_keys=True) for r in runs}
        for env in sorted(envs):
            print(f"{label} host: {env}")
    print(f"note: {NOISE_NOTE}")

    def medians(runs, workload, trace):
        values = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == trace:
                for name, m in r["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        return {k: (statistics.median(v), len(v)) for k, v in values.items()}

    print(f"{'workload':<9} {'metric':<44} {'old':>12} {'new':>12} {'delta':>8} "
          f"{'bound':>6}  verdict")
    worse = 0
    keys = sorted({(r["workload"], r["trace"]) for r in docs[0] + docs[1]})
    for workload, trace in keys:
        old, new = medians(docs[0], workload, trace), medians(docs[1], workload, trace)
        for name in sorted(set(old) & set(new)):
            (a, na), (b, nb) = old[name], new[name]
            spec = specs.get(name, {})
            delta = (b - a) / a if a else 0.0
            bound = spec.get("bound")
            if bound is None:
                verdict = f"per-layer, no bound (runs {na}/{nb})"
            else:
                loss = delta if spec["better"] == "lower" else -delta
                ok = loss <= bound
                worse += not ok
                verdict = (f"{'within' if ok else 'BEYOND'} bound (runs {na}/{nb})")
            print(f"{workload:<9} {name:<44} {a:>12.6g} {b:>12.6g} {delta:>+8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append this run's result to a JSON list file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true",
                        help="check count determinism and trace transparency")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print median deltas between two --save files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
