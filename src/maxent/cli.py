"""Command line front end.

Subcommands: analyze (full report on a state file), generate (write family
states), search (optimizer runs), verify (cross-module property suite), and
sample (seeded measurement shots). Exit codes: 0 success or verdict pass,
1 verdict fail, 2 usage, parse or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .entanglement import (
    LN2,
    apply_local_unitaries,
    commutator_defect,
    constraint_check,
    criterion_check,
    reduced_entropy,
    schmidt_coefficients,
    trace_invariant,
)
from .measurement import (
    axes_from_chars,
    correlation_matrix,
    empirical_moments,
    local_expectations,
    mutual_information,
    sample_outcomes,
)
from .search import (
    ConstraintParams,
    cost,
    generate_constrained,
    haar_random_state,
    haar_random_su2,
    multi_start,
    optimize,
    random_constraint_params,
)
from .statefile import format_state, read_state_file, write_state_file
from .states import (
    EXAMPLE_STATE_NAMES,
    State,
    as_coefficient_matrix,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
    schmidt_state,
)

_EPILOG = "basis characters: x, y, z name the three Pauli axes (1, 2, 3)"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------- analyze


def _analysis_document(state: State, label, tol: float, constraint_tol: float) -> dict:
    sites = []
    for site, bloch in enumerate(local_expectations(state).tolist(), start=1):
        rep = reduced_entropy(state, site)
        sites.append(
            {
                "site": site,
                "expectations": dict(zip("xyz", bloch)),
                "variances": {c: 1.0 - e * e for c, e in zip("xyz", bloch)},
                "entropy_nats": rep.entropy_nats,
                "entropy_bits": rep.entropy_nats / LN2,
                "eigenvalues": list(rep.eigenvalues),
                "commutator_defect": commutator_defect(state, site),
            }
        )
    pairs = []
    for i in range(1, state.n_qubits + 1):
        for j in range(i + 1, state.n_qubits + 1):
            cm = correlation_matrix(state, i, j)
            pairs.append({"sites": [i, j], "t": cm.t.tolist()})
    crit = criterion_check(state, tol)
    doc = {
        "n_qubits": state.n_qubits,
        "label": label,
        "criterion": {
            "satisfied": crit.satisfied,
            "max_abs_expectation": crit.max_abs_expectation,
            "tolerance": crit.tolerance,
        },
        "sites": sites,
        "correlation_matrices": pairs,
        "constraint": None,
        "schmidt_coefficients": None,
        "trace_invariant": None,
    }
    if state.n_qubits == 2:
        con = constraint_check(as_coefficient_matrix(state), constraint_tol)
        doc["constraint"] = {
            "satisfied": con.satisfied,
            "degenerate": con.degenerate,
            "modulus_residuals": list(con.modulus_residuals),
            "phase_residual": con.phase_residual,
            "tolerance": constraint_tol,
        }
        doc["schmidt_coefficients"] = list(schmidt_coefficients(state))
        doc["trace_invariant"] = trace_invariant(state)
    return doc


def _render_analysis(doc: dict) -> str:
    lines = [f"n_qubits: {doc['n_qubits']}"]
    if doc["label"]:
        lines.append(f"label: {doc['label']}")
    crit = doc["criterion"]
    verdict = "satisfied" if crit["satisfied"] else "not satisfied"
    lines.append(
        f"criterion: {verdict}  max |<sigma>| {_fmt(crit['max_abs_expectation'])}"
        f"  tolerance {_fmt(crit['tolerance'])}"
    )
    for s in doc["sites"]:
        e, v = s["expectations"], s["variances"]
        lines.append(
            f"site {s['site']} expectation  "
            + "  ".join(f"{c} {_fmt(e[c]):>13}" for c in "xyz")
        )
        lines.append(
            f"site {s['site']} variance     "
            + "  ".join(f"{c} {_fmt(v[c]):>13}" for c in "xyz")
        )
        lines.append(
            f"site {s['site']} entropy      {_fmt(s['entropy_nats'])} nats"
            f"  {_fmt(s['entropy_bits'])} bits"
            f"  eigenvalues {_fmt(s['eigenvalues'][0])} {_fmt(s['eigenvalues'][1])}"
        )
        lines.append(f"site {s['site']} commutator   {_fmt(s['commutator_defect'])}")
    for pair in doc["correlation_matrices"]:
        i, j = pair["sites"]
        lines.append(f"correlation sites ({i},{j}):")
        for c, row in zip("xyz", pair["t"]):
            lines.append("  " + c + "  " + "  ".join(f"{_fmt(x):>13}" for x in row))
    if doc["constraint"] is not None:
        con = doc["constraint"]
        verdict = "satisfied" if con["satisfied"] else "not satisfied"
        extra = " (degenerate)" if con["degenerate"] else ""
        mods = " ".join(_fmt(r) for r in con["modulus_residuals"])
        lines.append(
            f"constraint: {verdict}{extra}  modulus residuals {mods}"
            f"  phase residual {_fmt(con['phase_residual'])}"
        )
        s1, s2 = doc["schmidt_coefficients"]
        lines.append(f"schmidt coefficients: {_fmt(s1)} {_fmt(s2)}")
        lines.append(f"trace invariant: {_fmt(doc['trace_invariant'])}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    state, label = read_state_file(args.path)
    doc = _analysis_document(state, label, args.tol, args.constraint_tol)
    if args.json:
        _emit(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit(_render_analysis(doc))
    return 0


# --------------------------------------------------------------- generate


def _branch_value(text: str) -> float:
    return math.pi if text == "+pi" else -math.pi


def cmd_generate(args) -> int:
    family = args.family
    if family == "epr":
        state = epr_family(args.kind, args.phase)
        label = f"epr-{args.kind} phase={_fmt(args.phase)}"
    elif family == "schmidt":
        state = schmidt_state(args.b1, args.b2)
        label = f"schmidt b1={_fmt(args.b1)} b2={_fmt(args.b2)}"
    elif family == "ghz":
        state = ghz(args.sign)
        label = f"ghz{args.sign}"
    elif family == "constrained":
        if args.random:
            if args.r is not None:
                raise ValueError("--random and --r are mutually exclusive")
            params = random_constraint_params(args.seed)
            label = f"constrained seed={args.seed}"
        else:
            if args.r is None:
                raise ValueError("constrained requires --r or --random")
            params = ConstraintParams(
                r=args.r,
                alpha=args.alpha,
                beta=args.beta,
                delta=args.delta,
                branch=_branch_value(args.branch),
            )
            label = (
                f"constrained r={_fmt(args.r)} alpha={_fmt(args.alpha)}"
                f" beta={_fmt(args.beta)} delta={_fmt(args.delta)} branch={args.branch}"
            )
        state = generate_constrained(params)
    else:
        state = example_state(args.name)
        label = args.name
    if args.label is not None:
        label = args.label
    if args.out:
        write_state_file(args.out, state, label)
    else:
        _emit(format_state(state, label))
    return 0


# ----------------------------------------------------------------- search


def cmd_search(args) -> int:
    if not 2 <= args.n <= 8:
        raise ValueError(f"--n must be in [2, 8], got {args.n}")
    outcomes = multi_start(
        args.n, args.starts, args.tol, args.seed, max_iter=args.max_iter
    )
    best = outcomes[0]
    if args.json:
        doc = {
            "n": args.n,
            "starts": args.starts,
            "tol": args.tol,
            "seed": args.seed,
            "results": [
                {
                    "rank": k,
                    "seed": o.seed,
                    "iterations": o.iterations,
                    "final_cost": o.final_cost,
                    "converged": o.converged,
                    "stop_reason": o.stop_reason,
                    "cost_evals": o.cost_evals,
                    "escapes": o.escapes,
                }
                for k, o in enumerate(outcomes, start=1)
            ],
            "best_amplitudes": [
                [float(z.real), float(z.imag)] for z in best.state.amplitudes
            ],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True))
    else:
        lines = [
            f"search n={args.n} starts={args.starts} tol={_fmt(args.tol)} seed={args.seed}",
            "rank  converged  iterations  final_cost            seed",
        ]
        for k, o in enumerate(outcomes, start=1):
            lines.append(
                f"{k:>4}  {str(o.converged).lower():<9}  {o.iterations:>10}"
                f"  {o.final_cost:<20.9g}  {o.seed}"
            )
        entropies = " ".join(
            _fmt(reduced_entropy(best.state, s).entropy_nats)
            for s in range(1, args.n + 1)
        )
        lines.append(f"best entropies (nats): {entropies}")
        _emit("\n".join(lines))
    if args.out:
        write_state_file(args.out, best.state, f"search n={args.n} seed={args.seed}")
    return 0 if best.converged else 1


# ----------------------------------------------------------------- verify


def _criterion_state(n: int, rng) -> State:
    """A random state satisfying the vanishing-expectation criterion."""
    if n == 2:
        return generate_constrained(random_constraint_params(rng))
    base = ghz("+") if rng.random() < 0.5 else example_state("three_qubit_balanced")
    return apply_local_unitaries(base, [haar_random_su2(rng) for _ in range(3)])


def _perturbed(state: State, size: float, rng) -> State:
    noise = rng.standard_normal(state.dim) + 1j * rng.standard_normal(state.dim)
    return from_amplitudes(state.amplitudes + size * noise / np.linalg.norm(noise))


# Each property is one trial's predicate (k, rng, args) -> pass; k is the
# 0-based trial index and rng the property's own stream.


def _verify_constructive(_k, rng, args) -> bool:
    state = generate_constrained(random_constraint_params(rng))
    if args.perturb:
        state = _perturbed(state, args.perturb, rng)
    return criterion_check(state, args.tol).satisfied and all(
        abs(reduced_entropy(state, s).entropy_nats - LN2) <= args.tol for s in (1, 2)
    )


def _verify_converse(_k, rng, args) -> bool:
    initial = haar_random_state(2, rng)
    out = optimize(initial, tol=1e-18, seed=int(rng.integers(1 << 63)))
    return out.converged and constraint_check(
        as_coefficient_matrix(out.state), args.constraint_tol
    ).satisfied


def _verify_lu_invariance(k, rng, args) -> bool:
    n = 2 if k % 2 == 0 else 3
    state = _criterion_state(n, rng) if k % 4 < 2 else haar_random_state(n, rng)
    moved = apply_local_unitaries(state, [haar_random_su2(rng) for _ in range(n)])
    same_verdict = (
        criterion_check(state, args.tol).satisfied == criterion_check(moved, args.tol).satisfied
    )
    pairs = [
        (reduced_entropy(state, s).entropy_nats, reduced_entropy(moved, s).entropy_nats)
        for s in range(1, n + 1)
    ]
    if n == 2:
        pairs += zip(schmidt_coefficients(state), schmidt_coefficients(moved))
        pairs.append((trace_invariant(state), trace_invariant(moved)))
    return same_verdict and all(abs(u - v) <= 1e-9 for u, v in pairs)


def _verify_commutator(k, rng, _args) -> bool:
    n = 2 if k % 2 == 0 else 3
    state = _criterion_state(n, rng)
    commutes = all(commutator_defect(state, s) <= 1e-9 for s in range(1, n + 1))
    # draw the biased state even when the first half failed, so the stream
    # position of every later trial does not depend on verdicts
    noisy = haar_random_state(n, rng)
    for _ in range(100):
        if criterion_check(noisy, 0.1).max_abs_expectation >= 0.1:
            break
        noisy = haar_random_state(n, rng)
    return commutes and max(commutator_defect(noisy, s) for s in range(1, n + 1)) >= 1e-3


def _verify_entropy_coupling(_k, rng, _args) -> bool:
    state = haar_random_state(2, rng)
    return all(
        LN2 - reduced_entropy(state, s).entropy_nats >= b @ b / 2 - 1e-12
        for s, b in enumerate(local_expectations(state), start=1)
    )


def _verify_orthogonality(_k, rng, _args) -> bool:
    t = correlation_matrix(generate_constrained(random_constraint_params(rng)), 1, 2).t
    return np.linalg.norm(t @ t.T - np.eye(3)) <= 1e-6


_VERIFY_PROPERTIES = (
    ("constructive", _verify_constructive),
    ("converse", _verify_converse),
    ("lu_invariance", _verify_lu_invariance),
    ("commutator", _verify_commutator),
    ("entropy_coupling", _verify_entropy_coupling),
    ("correlation_orthogonality", _verify_orthogonality),
)


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rows = []
    for index, (name, prop) in enumerate(_VERIFY_PROPERTIES):
        rng = np.random.default_rng([index, args.seed])
        passes = sum(bool(prop(k, rng, args)) for k in range(args.trials))
        rows.append({"property": name, "passes": passes, "trials": args.trials})
    all_pass = all(row["passes"] == args.trials for row in rows)
    if args.json:
        _emit(
            json.dumps(
                {"trials": args.trials, "seed": args.seed, "all_pass": all_pass, "properties": rows},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        lines = [
            f"{row['property']:<26} {row['passes']}/{row['trials']} pass" for row in rows
        ]
        lines.append("result: " + ("all pass" if all_pass else "FAIL"))
        _emit("\n".join(lines))
    return 0 if all_pass else 1


# ----------------------------------------------------------------- sample


def cmd_sample(args) -> int:
    state, _label = read_state_file(args.path)
    record = sample_outcomes(state, axes_from_chars(args.bases), args.shots, args.seed)
    means, products = (m.tolist() for m in empirical_moments(record))
    expectations = [
        {"site": i + 1, "value": m, "std_err": math.sqrt(max(1.0 - m * m, 0.0) / record.shots)}
        for i, m in enumerate(means)
    ]
    correlations, infos = [], []
    for i in range(state.n_qubits):
        for j in range(i + 1, state.n_qubits):
            prod = products[i][j]
            correlations.append(
                {
                    "sites": [i + 1, j + 1],
                    "product_mean": prod,
                    "covariance": prod - means[i] * means[j],
                    "std_err": math.sqrt(max(1.0 - prod * prod, 0.0) / record.shots),
                }
            )
            nats = mutual_information(record, i + 1, j + 1)
            infos.append({"sites": [i + 1, j + 1], "nats": nats, "bits": nats / LN2})
    if args.json:
        doc = {
            "bases": args.bases,
            "shots": record.shots,
            "seed": record.seed,
            "counts": {"".join("+-"[v < 0] for v in o): c for o, c in record.counts.items()},
            "expectations": expectations,
            "correlations": correlations,
            "mutual_information": infos,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    lines = [record.to_table().rstrip("\n")]
    for e in expectations:
        lines.append(
            f"site {e['site']} mean {_fmt(e['value'])}  std err {_fmt(e['std_err'])}"
        )
    for c in correlations:
        i, j = c["sites"]
        lines.append(
            f"sites ({i},{j}) product mean {_fmt(c['product_mean'])}"
            f"  covariance {_fmt(c['covariance'])}  std err {_fmt(c['std_err'])}"
        )
    for m in infos:
        i, j = m["sites"]
        lines.append(
            f"sites ({i},{j}) mutual information {_fmt(m['nats'])} nats"
            f"  {_fmt(m['bits'])} bits"
        )
    _emit("\n".join(lines))
    return 0


# ------------------------------------------------------------------ main


def _finite_float(text: str) -> float:
    """argparse type for every float option: NaN and infinities exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    """The whole argument tree; built once, at import, into ``_PARSER``."""
    parser = argparse.ArgumentParser(
        prog="maxent",
        description="Detect, construct, and sample maximally entangled qubit states.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on a state file", epilog=_EPILOG)
    p.add_argument("path")
    p.add_argument("--tol", type=_finite_float, default=1e-9, help="criterion tolerance")
    p.add_argument(
        "--constraint-tol", type=_finite_float, default=1e-6, help="constraint tolerance"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a family state file")
    fam = p.add_subparsers(dest="family", required=True)

    f = fam.add_parser("epr", help="(|+-> + e^{i phase}|-+>)/sqrt(2) or the ++/-- kind")
    f.add_argument("--kind", choices=["psi", "varphi"], required=True)
    f.add_argument("--phase", type=_finite_float, default=0.0)

    f = fam.add_parser("schmidt", help="b1|++> + b2|-->")
    f.add_argument("--b1", type=_finite_float, required=True)
    f.add_argument("--b2", type=_finite_float, required=True)

    f = fam.add_parser("ghz", help="(|+++> +- |--->)/sqrt(2)")
    f.add_argument("--sign", choices=["+", "-"], default="+")

    f = fam.add_parser("constrained", help="2-qubit state from constraint coordinates")
    f.add_argument("--r", type=_finite_float, default=None)
    f.add_argument("--alpha", type=_finite_float, default=0.0)
    f.add_argument("--beta", type=_finite_float, default=0.0)
    f.add_argument("--delta", type=_finite_float, default=0.0)
    f.add_argument("--branch", choices=["+pi", "-pi"], default="+pi")
    f.add_argument("--random", action="store_true", help="draw parameters from --seed")
    f.add_argument("--seed", type=int, default=0)

    f = fam.add_parser("example", help="named states used throughout the tests")
    f.add_argument("--name", choices=list(EXAMPLE_STATE_NAMES), required=True)

    for f in fam.choices.values():
        f.add_argument("--out", default=None, help="output path (stdout if omitted)")
        f.add_argument("--label", default=None, help="override the label line")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="minimize the summed squared expectations")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--tol", type=_finite_float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--out", default=None, help="write the best state here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run the cross-module property suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--constraint-tol", type=_finite_float, default=1e-6)
    p.add_argument(
        "--perturb",
        type=_finite_float,
        default=0.0,
        help="inject amplitude noise of this size before the constructive check",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="seeded Born-rule shots", epilog=_EPILOG)
    p.add_argument("path")
    p.add_argument("--bases", required=True, help="one of x, y, z per qubit, e.g. zz")
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # StateFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
