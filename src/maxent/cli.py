"""Command line front end.

Subcommands: analyze (full report on a state file), generate (write family
states), search (optimizer runs), verify (cross-module property suite), and
sample (seeded measurement shots). Exit codes: 0 success or verdict pass,
1 verdict fail, 2 usage, parse or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys

import numpy as np

from .entanglement import (
    CONSTRAINT_TOL,
    CRITERION_TOL,
    LN2,
    apply_local_unitaries,
    constraint_check,
    criterion_check,
    schmidt_coefficients,
    site_marginals,
    trace_invariant,
)
from .linalg import MAX_QUBITS, _norm
from .measurement import (
    axes_from_chars,
    correlation_matrices,
    correlation_matrix,
    empirical_moments,
    local_expectations,
    mutual_information_matrix,
    sample_outcomes,
)
from .search import (
    DEFAULT_MAX_ITER,
    ConstraintParams,
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
    _ket_labels,
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


def _dumps(doc: dict, **blocks: str) -> str:
    """The one JSON layout of every ``--json`` document.

    Each keyword names a top-level key and gives its value already rendered in
    this layout at depth 1: the key is dumped as null, and that null is swapped
    for the text. Only a top-level key follows a newline and exactly two spaces,
    so no string value and no deeper key can match. The keys are swapped last
    first, so no search for a null runs through a block already swapped in.
    """
    text = json.dumps({**doc, **dict.fromkeys(blocks)}, indent=2, sort_keys=True)
    for key, block in sorted(blocks.items(), reverse=True):
        text = text.replace(f'\n  "{key}": null', f'\n  "{key}": {block}', 1)
    return text


def _template(entry) -> str:
    """The ``%`` template of one list entry in the :func:`_dumps` layout at depth 2.

    ``entry`` is the entry with each leaf replaced by its format: ``"%r"`` for a
    finite float (its repr is its JSON token), ``"%d"`` for an int, ``"%s"`` for a
    bare token such as ``true``, and ``'"%s"'`` for ASCII text that needs no
    escaping. The template takes the leaves in the order ``json.dumps`` writes
    them: keys sorted, lists in order.
    """
    text = "    " + json.dumps(entry, indent=2, sort_keys=True).replace("\n", "\n    ")
    for fmt in ("%r", "%d", "%s", '"%s"'):  # '"%s"' last: its result is the dump of "%s"
        text = text.replace(json.dumps(fmt), fmt)
    return text


def _json_block(template: str, rows) -> str:
    """:func:`_dumps` of a list at depth 1, one entry per row tuple filled into ``template``."""
    body = ",\n".join([template % row for row in rows])
    return f"[\n{body}\n  ]" if body else "[]"


# ---------------------------------------------------------------- analyze


_PAIR_JSON = _template({"sites": ["%d", "%d"], "t": [["%r"] * 3] * 3})
_SITE_JSON = _template({
    "commutator_defect": "%r", "eigenvalues": ["%r", "%r"], "entropy_bits": "%r",
    "entropy_nats": "%r", "expectations": dict.fromkeys("xyz", "%r"), "site": "%d",
    "variances": dict.fromkeys("xyz", "%r"),
})


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
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    state, label = read_state_file(args.path)
    n = state.n_qubits
    crit = criterion_check(state, args.tol)
    # Every float in the two spliced lists is a finite Python float (finite amplitudes;
    # site_marginals clamps the spectrum and takes 0 ln 0 = 0), so each repr is its JSON token.
    eigenvalues, entropies, defects = (q.tolist() for q in site_marginals(crit.expectations))
    sites = [
        (defects[k], *eigenvalues[k], entropies[k] / LN2, entropies[k], *b, k + 1,
         *(1.0 - e * e for e in b))
        for k, b in enumerate(crit.expectations)
    ]
    t = correlation_matrices(state).reshape(n, n, 9).tolist()
    pairs = [(i + 1, j + 1, *t[i][j]) for i, j in itertools.combinations(range(n), 2)]
    doc = {
        "n_qubits": n,
        "label": label,
        "criterion": {
            "satisfied": crit.satisfied,
            "max_abs_expectation": crit.max_abs_expectation,
            "tolerance": crit.tolerance,
        },
        "constraint": None,
        "schmidt_coefficients": None,
        "trace_invariant": None,
    }
    if n == 2:
        con = constraint_check(as_coefficient_matrix(state), args.constraint_tol)
        doc["constraint"] = {
            "satisfied": con.satisfied,
            "degenerate": con.degenerate,
            "modulus_residuals": list(con.modulus_residuals),
            "phase_residual": con.phase_residual,
            "tolerance": args.constraint_tol,
        }
        doc["schmidt_coefficients"] = list(schmidt_coefficients(state))
        doc["trace_invariant"] = trace_invariant(state)
    text = _dumps(doc, correlation_matrices=_json_block(_PAIR_JSON, pairs),
                  sites=_json_block(_SITE_JSON, sites))
    print(text if args.json else _render_analysis(json.loads(text)))
    return 0


# --------------------------------------------------------------- generate


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
            params = random_constraint_params(args.seed)
            label = f"constrained seed={args.seed}"
        else:
            params = ConstraintParams(
                r=args.r,
                alpha=args.alpha,
                beta=args.beta,
                delta=args.delta,
                branch=math.pi if args.branch == "+pi" else -math.pi,
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
        sys.stdout.write(format_state(state, label))
    return 0


# ----------------------------------------------------------------- search


# An amplitude's [re, im] takes the two reprs format_state writes, each its JSON token.
_AMPLITUDE_JSON = _template(["%s", "%s"])
# Every cost is a finite Python float; every stop reason is one of three ASCII words.
_RESULT_JSON = _template({
    "converged": "%s", "cost_evals": "%d", "escapes": "%d", "final_cost": "%r",
    "iterations": "%d", "rank": "%d", "seed": "%d", "stop_reason": '"%s"',
})


def _render_search(doc: dict) -> str:
    """The results table, then the best state's entropies, computed here because
    ``best_amplitudes`` holds the exact reprs of its amplitudes, which rebuild it bit for bit."""
    best = from_amplitudes([complex(re, im) for re, im in doc["best_amplitudes"]])
    entropies = site_marginals(local_expectations(best))[1].tolist()
    lines = [
        f"search n={doc['n']} starts={doc['starts']} tol={_fmt(doc['tol'])} seed={doc['seed']}",
        "rank  converged  iterations  final_cost            seed",
    ]
    lines += (
        f"{r['rank']:>4}  {str(r['converged']).lower():<9}  {r['iterations']:>10}"
        f"  {r['final_cost']:<20.9g}  {r['seed']}"
        for r in doc["results"]
    )
    lines.append("best entropies (nats): " + " ".join(map(_fmt, entropies)))
    return "\n".join(lines)


def cmd_search(args) -> int:
    outcomes = multi_start(
        args.n, args.starts, args.tol, args.seed, max_iter=args.max_iter
    )
    best = outcomes[0]
    label = f"search n={args.n} seed={args.seed}"
    if args.out:  # before stdout, so that a failed write prints nothing
        state_text = write_state_file(args.out, best.state, label)
    else:
        state_text = format_state(best.state, label)
    results = [
        ("true" if o.converged else "false", o.cost_evals, o.escapes, o.final_cost, o.iterations,
         rank, o.seed, o.stop_reason)
        for rank, o in enumerate(outcomes, start=1)
    ]
    reprs = iter(state_text.split()[-2 * best.state.dim:])  # the amplitude rows: re im, ...
    doc = {"n": args.n, "starts": args.starts, "tol": args.tol, "seed": args.seed}
    text = _dumps(doc, results=_json_block(_RESULT_JSON, results),
                  best_amplitudes=_json_block(_AMPLITUDE_JSON, zip(reprs, reprs)))
    print(text if args.json else _render_search(json.loads(text)))
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
    return from_amplitudes(state.amplitudes + size * noise / _norm(noise))


# Each property is one trial's predicate (k, rng, args) -> pass; k is the
# 0-based trial index and rng the property's own stream.


def _verify_constructive(_k, rng, args) -> bool:
    state = generate_constrained(random_constraint_params(rng))
    if args.perturb:
        state = _perturbed(state, args.perturb, rng)
    crit = criterion_check(state, args.tol)
    return crit.satisfied and all(
        abs(s - LN2) <= args.tol for s in site_marginals(crit.expectations)[1].tolist()
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
    before, after = (criterion_check(s, args.tol) for s in (state, moved))
    same_verdict = before.satisfied == after.satisfied
    entropies = (site_marginals(c.expectations)[1].tolist() for c in (before, after))
    pairs = list(zip(*entropies))
    if n == 2:
        pairs += zip(schmidt_coefficients(state), schmidt_coefficients(moved))
        pairs.append((trace_invariant(state), trace_invariant(moved)))
    return same_verdict and all(abs(u - v) <= 1e-9 for u, v in pairs)


def _verify_commutator(k, rng, _args) -> bool:
    n = 2 if k % 2 == 0 else 3
    state = _criterion_state(n, rng)
    commutes = site_marginals(local_expectations(state))[2].max() <= 1e-9
    # draw the biased state even when the first half failed, so the stream
    # position of every later trial does not depend on verdicts
    for _ in range(101):
        noisy_crit = criterion_check(haar_random_state(n, rng), 0.1)
        if noisy_crit.max_abs_expectation >= 0.1:
            break
    return commutes and site_marginals(noisy_crit.expectations)[2].max() >= 1e-3


def _verify_entropy_coupling(_k, rng, _args) -> bool:
    # ln 2 - S = sum_k r^(2k) / (2k(2k - 1)) lies in [r^2 / 2, r^2 ln 2] for Bloch length r
    b = local_expectations(haar_random_state(2, rng))
    deficit, r2 = LN2 - site_marginals(b)[1], np.sum(b * b, axis=1)
    return bool(np.all((r2 / 2 - 1e-12 <= deficit) & (deficit <= r2 * LN2 + 1e-12)))


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


def _render_verify(doc: dict) -> str:
    lines = [
        f"{row['property']:<26} {row['passes']}/{row['trials']} pass" for row in doc["properties"]
    ]
    lines.append("result: " + ("all pass" if doc["all_pass"] else "FAIL"))
    return "\n".join(lines)


def cmd_verify(args) -> int:
    rows = []
    for index, (name, prop) in enumerate(_VERIFY_PROPERTIES):
        rng = np.random.default_rng([index, args.seed])
        passes = sum(bool(prop(k, rng, args)) for k in range(args.trials))
        rows.append({"property": name, "passes": passes, "trials": args.trials})
    all_pass = all(row["passes"] == args.trials for row in rows)
    doc = {"trials": args.trials, "seed": args.seed, "all_pass": all_pass, "properties": rows}
    text = _dumps(doc)
    print(text if args.json else _render_verify(json.loads(text)))
    return 0 if all_pass else 1


# ----------------------------------------------------------------- sample

def _render_sample(doc: dict) -> str:
    lines = [f"bases={doc['bases']} seed={doc['seed']} shots={doc['shots']}"]
    lines += (f"{label} {count}" for label, count in doc["counts"].items())
    for e in doc["expectations"]:
        lines.append(
            f"site {e['site']} mean {_fmt(e['value'])}  std err {_fmt(e['std_err'])}"
        )
    for c in doc["correlations"]:
        i, j = c["sites"]
        lines.append(
            f"sites ({i},{j}) product mean {_fmt(c['product_mean'])}"
            f"  covariance {_fmt(c['covariance'])}  std err {_fmt(c['std_err'])}"
        )
    for m in doc["mutual_information"]:
        i, j = m["sites"]
        lines.append(
            f"sites ({i},{j}) mutual information {_fmt(m['nats'])} nats"
            f"  {_fmt(m['bits'])} bits"
        )
    return "\n".join(lines)


_EXPECTATION_JSON = _template({"site": "%d", "std_err": "%r", "value": "%r"})
_CORRELATION_JSON = _template(
    {"covariance": "%r", "product_mean": "%r", "sites": ["%d", "%d"], "std_err": "%r"}
)
_INFORMATION_JSON = _template({"bits": "%r", "nats": "%r", "sites": ["%d", "%d"]})


def cmd_sample(args) -> int:
    state, _label = read_state_file(args.path)
    record = sample_outcomes(state, axes_from_chars(args.bases), args.shots, args.seed)
    shots, counts, labels = record.shots, record.binned.tolist(), _ket_labels(state.n_qubits)
    means, products = (m.tolist() for m in empirical_moments(record))
    nats = mutual_information_matrix(record).tolist()
    # Every float is a finite Python float (ratios of counts, their square roots and
    # the plug-in information), so its repr is its JSON token; each label is +/- text.
    # counts is in index order, the sorted key order of _dumps ("+" < "-"), and never
    # empty: shots >= 1.
    members = ",\n".join(
        [f'    "{labels[k]}": {counts[k]}' for k in np.flatnonzero(record.binned).tolist()]
    )
    expectations = [(i + 1, math.sqrt((1.0 - m * m) / shots), m) for i, m in enumerate(means)]
    correlations, infos = [], []
    for i, j in itertools.combinations(range(state.n_qubits), 2):
        prod, mi = products[i][j], nats[i][j]
        correlations.append((prod - means[i] * means[j], prod, i + 1, j + 1,
                             math.sqrt((1.0 - prod * prod) / shots)))
        infos.append((mi / LN2, mi, i + 1, j + 1))
    text = _dumps(
        # axes_from_chars accepted exactly these x, y, z
        {"bases": args.bases.lower(), "shots": shots, "seed": record.seed},
        counts=f"{{\n{members}\n  }}",
        expectations=_json_block(_EXPECTATION_JSON, expectations),
        correlations=_json_block(_CORRELATION_JSON, correlations),
        mutual_information=_json_block(_INFORMATION_JSON, infos),
    )
    print(text if args.json else _render_sample(json.loads(text)))
    return 0


# ------------------------------------------------------------------ main


def _option(parse, ok, expected: str):
    """An argparse type: ``parse(text)`` if that parses and ``ok`` holds of it, else exit 2.

    A range a library call checks gets no type (--tol's sign, --starts, --max-iter, --shots,
    --bases, --r, --b1/--b2); --constraint-tol's does, as constraint_check runs at n = 2 only.
    """
    def option(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := parse(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return option


_finite_float = _option(float, math.isfinite, "a finite number")
_seed = _option(int, lambda v: v >= 0, "a non-negative integer")
_qubits = _option(int, lambda v: 2 <= v <= MAX_QUBITS, f"an integer in [2, {MAX_QUBITS}]")
_positive = _option(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The whole argument tree and its subcommand parsers by name.

    Built once, at import, into ``_PARSER`` and ``_COMMANDS``.
    """
    parser = argparse.ArgumentParser(
        prog="maxent",
        description="Detect, construct, and sample maximally entangled qubit states.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on a state file", epilog=_EPILOG)
    p.add_argument("path")
    p.add_argument("--tol", type=_finite_float, default=CRITERION_TOL, help="criterion tolerance")
    p.add_argument(
        "--constraint-tol", type=_positive, default=CONSTRAINT_TOL, help="constraint tolerance"
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
    given = f.add_mutually_exclusive_group(required=True)
    given.add_argument("--r", type=_finite_float, default=None)
    given.add_argument("--random", action="store_true", help="draw parameters from --seed")
    f.add_argument("--alpha", type=_finite_float, default=0.0)
    f.add_argument("--beta", type=_finite_float, default=0.0)
    f.add_argument("--delta", type=_finite_float, default=0.0)
    f.add_argument("--branch", choices=["+pi", "-pi"], default="+pi")
    f.add_argument("--seed", type=_seed, default=0)

    f = fam.add_parser("example", help="named states used throughout the tests")
    f.add_argument("--name", choices=list(EXAMPLE_STATE_NAMES), required=True)

    for f in fam.choices.values():
        f.add_argument("--out", default=None, help="output path (stdout if omitted)")
        f.add_argument("--label", default=None, help="override the label line")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("search", help="minimize the summed squared expectations")
    p.add_argument("--n", type=_qubits, default=2)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--tol", type=_finite_float, default=1e-12)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--out", default=None, help="write the best state here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run the cross-module property suite")
    p.add_argument("--trials", type=_option(int, lambda v: v >= 1, "an integer >= 1"), default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_finite_float, default=CRITERION_TOL)
    p.add_argument("--constraint-tol", type=_positive, default=CONSTRAINT_TOL)
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)
    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:  # _PARSER owns help and every error before a subcommand
        args = _PARSER.parse_args(argv)
    else:
        # What _PARSER.parse_args does after matching the name, without its own pass.
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # StateFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
