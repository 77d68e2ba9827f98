import argparse
import itertools
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from maxent import cli
from maxent.cli import main
from maxent.entanglement import (
    CONSTRAINT_TOL,
    CRITERION_TOL,
    apply_local_unitaries,
    commutator_defect,
    constraint_check,
    criterion_check,
    reduced_entropy,
    schmidt_coefficients,
    site_marginals,
    trace_invariant,
)
from maxent.measurement import (
    axes_from_chars,
    correlation_matrices,
    empirical_moments,
    local_expectations,
    mutual_information_matrix,
    sample_outcomes,
)
from maxent.search import (
    DEFAULT_MAX_ITER,
    generate_constrained,
    haar_random_state,
    haar_random_su2,
    multi_start,
    random_constraint_params,
)
from maxent.statefile import (
    StateFileError,
    format_state,
    parse_state,
    read_state_file,
    write_state_file,
)
from maxent.states import (
    State,
    as_coefficient_matrix,
    epr_family,
    example_state,
    from_amplitudes,
    ghz,
)

import oracles

LN2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_analyze_round_trip(capsys, tmp_path):
    path = str(tmp_path / "bell.txt")
    code, out, err = run(capsys, "generate", "epr", "--kind", "varphi", "--phase", "0", "--out", path)
    assert code == 0 and out == ""
    code, out, err = run(capsys, "analyze", path)
    assert code == 0
    assert "criterion: satisfied" in out
    assert "0.693147181 nats" in out
    assert "schmidt coefficients: 0.707106781 0.707106781" in out


def test_generate_families_all_pass_criterion(capsys, tmp_path):
    families = [
        ("epr", "--kind", "psi", "--phase", "2.1"),
        ("ghz", "--sign", "-"),
        ("constrained", "--r", "0.4", "--alpha", "0.3", "--beta", "1.0", "--delta", "2.0"),
        ("constrained", "--random", "--seed", "12"),
        ("example", "--name", "three_qubit_balanced"),
    ]
    for k, fam in enumerate(families):
        path = str(tmp_path / f"f{k}.txt")
        code, _, _ = run(capsys, "generate", *fam, "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "criterion: satisfied" in out


def test_generate_schmidt_not_maximal(capsys, tmp_path):
    path = str(tmp_path / "sk.txt")
    code, _, _ = run(capsys, "generate", "schmidt", "--b1", "0.6", "--b2", "0.8", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0  # analysis succeeds regardless of verdict
    assert "criterion: not satisfied" in out


def test_generate_to_stdout_is_deterministic(capsys):
    code, first, _ = run(capsys, "generate", "constrained", "--random", "--seed", "3")
    code2, second, _ = run(capsys, "generate", "constrained", "--random", "--seed", "3")
    assert code == code2 == 0
    assert first == second
    assert first.startswith("format: maxent-state/1\n")


def test_generate_constrained_truncated_angle_near_balanced(capsys, tmp_path):
    # the 8-digit angle reproduces the balanced example to ~1.4e-8
    path = str(tmp_path / "c.txt")
    code, _, _ = run(
        capsys, "generate", "constrained",
        "--r", "0.5", "--alpha", "1.5707963", "--beta", "0", "--delta", "0",
        "--out", path,
    )
    assert code == 0
    state, _ = read_state_file(path)
    want = example_state("two_qubit_balanced").amplitudes
    assert np.max(np.abs(state.amplitudes - want)) < 5e-8


def test_generate_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "ghz", "--sign", "q"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{path}", "--tol", "nan", "--json"),
        ("analyze", "{path}", "--constraint-tol", "inf"),
        ("search", "--tol", "nan", "--json"),
        ("search", "--tol", "inf"),
        ("search", "--tol", "abc"),
        ("verify", "--tol", "nan"),
        ("verify", "--constraint-tol=-inf"),
        ("verify", "--perturb", "nan"),
        ("generate", "epr", "--kind", "psi", "--phase", "inf"),
        ("generate", "schmidt", "--b1", "nan", "--b2", "1"),
        ("generate", "schmidt", "--b1", "1", "--b2=-inf"),
        ("generate", "constrained", "--r", "nan"),
        ("generate", "constrained", "--r", "0.5", "--alpha", "inf"),
        ("generate", "constrained", "--r", "0.5", "--beta", "nan"),
        ("generate", "constrained", "--r", "0.5", "--delta", "Infinity"),
    ],
)
def test_non_finite_float_options_are_usage_errors(argv, capsys, tmp_path):
    path = tmp_path / "bell.txt"
    assert main(["generate", "epr", "--kind", "varphi", "--out", str(path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main([a.format(path=path) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--n", "2", "--starts", "1"),
        ("sample", "{path}", "--bases", "zz"),
        ("generate", "constrained", "--random"),
        ("verify", "--trials", "1"),
    ],
)
@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_bad_seed_is_a_usage_error_naming_option_and_value(argv, seed, capsys, tmp_path):
    path = tmp_path / "bell.txt"
    assert main(["generate", "epr", "--kind", "varphi", "--out", str(path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*(a.format(path=path) for a in argv), "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err


_POSITIVE = "a finite number > 0"
# (argv, what its stderr's last line says after "error: "); {two} and {three} name
# 2- and 3-qubit state files
USAGE_ERRORS = [
    *((("verify", "--constraint-tol", tol, *mode),
       f"argument --constraint-tol: expected {_POSITIVE}, got '{tol}'")
      for tol in ("0", "-1") for mode in ((), ("--json",))),
    *((("search", "--n", n), f"argument --n: expected an integer in [2, 8], got '{n}'")
      for n in ("1", "9")),
    (("verify", "--trials", "0"), "argument --trials: expected an integer >= 1, got '0'"),
    (("generate", "constrained", "--seed", "3"), "one of the arguments --r --random is required"),
    (("generate", "constrained", "--random", "--r", "0.5"),
     "argument --r: not allowed with argument --random"),
]


@pytest.mark.parametrize(
    "argv, line", USAGE_ERRORS, ids=[re.sub(r"[{}]|--", "", "_".join(a)) for a, _ in USAGE_ERRORS]
)
def test_usage_errors_exit_2_from_the_parser_before_any_work(
    argv, line, capsys, monkeypatch, tmp_path
):
    paths = {"two": str(tmp_path / "two.txt"), "three": str(tmp_path / "three.txt")}
    write_state_file(paths["two"], epr_family("varphi", 0.0))
    write_state_file(paths["three"], ghz("+"))
    ran = []
    for name in ("read_state_file", "multi_start", "generate_constrained"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: ran.append(name))
    spies = tuple((name, lambda k, rng, args: ran.append(k)) for name, _ in cli._VERIFY_PROPERTIES)
    monkeypatch.setattr(cli, "_VERIFY_PROPERTIES", spies)
    argv = [a.format(**paths) for a in argv]
    prog = " ".join(argv[:2] if argv[0] == "generate" else argv[:1])
    for parse in (main, cli._PARSER.parse_args):  # the subcommand fast path, the whole tree
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, ran) == (2, "", [])
        assert captured.err.endswith(f"\nmaxent {prog}: error: {line}\n")


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_analyze_rejects_a_non_positive_constraint_tol_for_every_n(
    tol, capsys, monkeypatch, tmp_path
):
    paths = (str(tmp_path / "two.txt"), str(tmp_path / "three.txt"))
    write_state_file(paths[0], epr_family("varphi", 0.0))
    write_state_file(paths[1], ghz("+"))
    ran = []
    monkeypatch.setattr(cli, "read_state_file", lambda *a, **k: ran.append(a))
    for path in paths:
        for extra in ((), ("--json",)):
            code, out, err = _exit_and_streams(
                capsys, ["analyze", path, "--constraint-tol", tol, *extra]
            )
            assert (code, out, ran) == (2, "", [])
            assert err.endswith(
                f"\nmaxent analyze: error: argument --constraint-tol: "
                f"expected {_POSITIVE}, got '{tol}'\n"
            )


@pytest.mark.parametrize("argv", [("analyze", "{path}"), ("verify", "--trials", "1")])
def test_tol_and_constraint_tol_errors_name_different_options(argv, capsys, tmp_path):
    path = str(tmp_path / "bell.txt")
    write_state_file(path, epr_family("varphi", 0.0))
    argv = [a.format(path=path) for a in argv]
    tol_error = "error: tolerance must be positive, got 0.0\n"  # the library's message
    assert run(capsys, *argv, "--tol", "0") == (2, "", tol_error)
    code, out, err = _exit_and_streams(capsys, [*argv, "--constraint-tol", "0"])
    assert (code, out) == (2, "")
    assert err.endswith(f": error: argument --constraint-tol: expected {_POSITIVE}, got '0'\n")


def test_analyze_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("format: maxent-state/1\nn_qubits: 2\namplitudes:\n1 0\nbroken\n0 0\n0 0\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 5" in err


def test_analyze_json_schema(capsys, tmp_path):
    path = str(tmp_path / "bal.txt")
    run(capsys, "generate", "example", "--name", "two_qubit_balanced", "--out", path)
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["criterion"]["satisfied"] is True
    assert doc["constraint"]["satisfied"] is True
    assert doc["constraint"]["degenerate"] is False
    assert doc["schmidt_coefficients"] == pytest.approx([2 ** -0.5, 2 ** -0.5])
    assert doc["trace_invariant"] == pytest.approx(1.0)
    site1 = doc["sites"][0]
    assert site1["entropy_nats"] == pytest.approx(LN2, abs=1e-9)
    assert site1["variances"]["z"] == pytest.approx(1.0, abs=1e-12)
    t = np.array(doc["correlation_matrices"][0]["t"])
    assert np.allclose(t @ t.T, np.eye(3), atol=1e-9)


def test_analyze_site_fields_equal_the_library_entries(capsys, tmp_path):
    for n in (1, 2, 3, 5, 8):
        path = str(tmp_path / f"haar{n}.txt")
        write_state_file(path, haar_random_state(n, seed=n), f"haar n={n}")
        state, _ = read_state_file(path)
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        bloch = local_expectations(state).tolist()
        for row in json.loads(out)["sites"]:
            b = bloch[row["site"] - 1]
            assert list(row["expectations"].values()) == b
            assert list(row["variances"].values()) == [1.0 - e * e for e in b]
            rep = reduced_entropy(state, row["site"])
            assert row["entropy_nats"] == rep.entropy_nats
            assert row["entropy_bits"] == rep.entropy_nats / LN2
            assert row["eigenvalues"] == list(rep.eigenvalues)
            assert row["commutator_defect"] == commutator_defect(state, row["site"])


def test_search_writes_converged_state(capsys, tmp_path):
    # cost <= 1e-12 certifies entropies to ~5e-13 but expectations only to
    # ~1e-6, so assert the entropy rendering, not the 1e-9 criterion verdict
    path = str(tmp_path / "best.txt")
    code, out, _ = run(
        capsys, "search", "--n", "2", "--starts", "5", "--tol", "1e-12",
        "--seed", "7", "--out", path,
    )
    assert code == 0
    assert "rank" in out and "best entropies" in out
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert out.count("0.693147181 nats") == 2


def test_search_tight_tolerance_endpoint_passes_criterion(capsys, tmp_path):
    path = str(tmp_path / "best.txt")
    code, _, _ = run(
        capsys, "search", "--n", "2", "--starts", "5", "--tol", "1e-18",
        "--seed", "9", "--out", path,
    )
    assert code == 0
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "criterion: satisfied" in out


def test_search_three_qubits_json(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "3", "--starts", "4", "--tol", "1e-12",
        "--seed", "2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r["converged"] for r in doc["results"])
    costs = [r["final_cost"] for r in doc["results"]]
    assert costs == sorted(costs)
    amps = np.array([re + 1j * im for re, im in doc["best_amplitudes"]])
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_search_iteration_starvation_exit_1(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "2", "--starts", "1", "--max-iter", "1",
        "--tol", "1e-12", "--seed", "3",
    )
    assert code == 1


def test_verify_passes_every_property(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--seed", "1")
    assert code == 0
    assert "result: all pass" in out
    for name in (
        "constructive", "converse", "lu_invariance", "commutator",
        "entropy_coupling", "correlation_orthogonality",
    ):
        assert f"{name}" in out and "5/5 pass" in out


def test_verify_minimal_single_trial(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "1", "--seed", "4")
    assert code == 0


@pytest.mark.parametrize("entropy", [0.0, LN2])
def test_verify_entropy_coupling_checks_both_sides_of_the_bound(monkeypatch, entropy):
    # S = 0 gives ln 2 - S = ln 2 > r^2 ln 2 (only the upper side fails, as a
    # Haar site has r < 1); S = ln 2 gives 0 < r^2 / 2 (only the lower side fails)
    marginals = cli.site_marginals

    def fake(b):
        eigenvalues, entropies, defects = marginals(b)
        return eigenvalues, np.full_like(entropies, entropy), defects

    monkeypatch.setattr(cli, "site_marginals", fake)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert not cli._verify_entropy_coupling(0, rng, None)


def test_verify_fault_injection(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--seed", "1", "--perturb", "1e-2")
    assert code == 1
    assert "constructive" in out and "0/5 pass" in out
    assert "result: FAIL" in out


# (n_qubits, satisfied) of each state that verify --trials 8 --seed 0 hands to
# criterion_check, in call order. The goldens pin only pass counts; this pins the draws.
VERIFY_CRITERION_CALLS = (
    [(2, True)] * 8  # constructive
    # lu_invariance: the state and its rotation, per trial
    + [(2, True), (2, True), (3, True), (3, True), (2, False), (2, False), (3, False), (3, False)] * 2
    + [(2, False), (3, False)] * 4  # commutator's biased draws
)


def test_verify_hands_the_recorded_states_to_criterion_check(capsys, monkeypatch):
    calls, check = [], cli.criterion_check

    def spy(state, tolerance):
        report = check(state, tolerance)
        calls.append((state.n_qubits, report.satisfied))
        return report

    monkeypatch.setattr(cli, "criterion_check", spy)
    assert run(capsys, "verify", "--trials", "8", "--seed", "0")[0] == 0
    assert calls == VERIFY_CRITERION_CALLS


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_verify_rejects_a_non_positive_constraint_tol_before_any_trial(tol, capsys, monkeypatch):
    ran = []
    spies = tuple((name, lambda k, rng, args: ran.append(k) or True)
                  for name, _ in cli._VERIFY_PROPERTIES)
    monkeypatch.setattr(cli, "_VERIFY_PROPERTIES", spies)
    for extra in ((), ("--json",)):
        argv = ["verify", "--trials", "3", "--constraint-tol", tol, *extra]
        code, out, err = _exit_and_streams(capsys, argv)
        assert (code, out, ran) == (2, "", [])
        assert err.endswith(f"argument --constraint-tol: expected {_POSITIVE}, got '{tol}'\n")
    assert run(capsys, "verify", "--trials", "3")[0] == 0
    assert len(ran) == 3 * len(spies)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["properties"]) == 6


def test_sample_bell_table_and_summary(capsys, tmp_path):
    path = str(tmp_path / "bell.txt")
    run(capsys, "generate", "epr", "--kind", "varphi", "--phase", "0", "--out", path)
    code, out, _ = run(capsys, "sample", path, "--bases", "zz", "--shots", "20000", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bases=zz seed=3 shots=20000"
    symbols = {line.split()[0] for line in lines[1:3]}
    assert symbols == {"++", "--"}
    assert "mutual information" in out
    # upper-case bases are read, and reported, as their lower-case form
    assert run(capsys, "sample", path, "--bases", "ZZ", "--shots", "20000", "--seed", "3") == (0, out, "")
    _, lower, _ = run(capsys, "sample", path, "--bases", "zz", "--shots", "20000", "--json")
    code, upper, _ = run(capsys, "sample", path, "--bases", "Zz", "--shots", "20000", "--json")
    assert code == 0 and upper == lower and json.loads(upper)["bases"] == "zz"


def test_sample_ghz_rows(capsys, tmp_path):
    path = str(tmp_path / "ghz.txt")
    run(capsys, "generate", "ghz", "--sign", "+", "--out", path)
    code, out, _ = run(capsys, "sample", path, "--bases", "zzz", "--shots", "5000", "--seed", "1")
    assert code == 0
    rows = [l.split()[0] for l in out.splitlines()[1:] if l and l[0] in "+-"]
    assert set(rows) <= {"+++", "---"}


def test_sample_product_state_low_information(capsys, tmp_path):
    path = str(tmp_path / "plus.txt")
    path_obj = tmp_path / "plus.txt"
    path_obj.write_text(
        "format: maxent-state/1\nn_qubits: 2\namplitudes:\n1 0\n0 0\n0 0\n0 0\n"
    )
    code, out, _ = run(capsys, "sample", path, "--bases", "zz", "--shots", "1000", "--seed", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"++": 1000}
    assert doc["mutual_information"][0]["nats"] <= 0.001


def test_sample_bases_mismatch_exit_2(capsys, tmp_path):
    path = str(tmp_path / "bell.txt")
    run(capsys, "generate", "epr", "--kind", "varphi", "--phase", "0", "--out", path)
    code, _, err = run(capsys, "sample", path, "--bases", "zzz", "--shots", "10")
    assert code == 2
    code, _, err = run(capsys, "sample", path, "--bases", "zz", "--shots", "0")
    assert code == 2


def test_sample_input_errors_name_the_sampler_check(capsys, tmp_path):
    path = str(tmp_path / "bell.txt")
    run(capsys, "generate", "epr", "--kind", "varphi", "--out", path)
    code, out, err = run(capsys, "sample", path, "--bases", "zzz", "--shots", "0")
    assert (code, out, err) == (2, "", "error: got 3 measurement axes for 2 qubits\n")
    code, out, err = run(capsys, "sample", path, "--bases", "zz", "--shots", "0")
    assert (code, out, err) == (2, "", "error: shots must be >= 1, got 0\n")


def test_sample_shot_counts_beyond_memory_and_beyond_int64(capsys, tmp_path):
    path = str(tmp_path / "ghz.txt")
    run(capsys, "generate", "ghz", "--out", path)
    code, out, _ = run(capsys, "sample", path, "--bases", "zzz", "--shots", "4000000000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["counts"].values()) == 4_000_000_000 and set(doc["counts"]) == {"+++", "---"}
    code, out, err = run(capsys, "sample", path, "--bases", "zzz", "--shots", str(10**20))
    assert (code, out) == (2, "")
    assert err == f"error: shots must be <= 2**63 - 1, got {10**20}\n"


def test_sample_text_rows_match_the_json_counts(capsys, tmp_path):
    # |+...+> read in x has all 2^n outcomes equally likely, so every row shows.
    for n in range(1, 9):
        path = str(tmp_path / f"plus{n}.txt")
        write_state_file(path, from_amplitudes(np.eye(1 << n)[0]), None)
        argv = ("sample", path, "--bases", "x" * n, "--shots", "1000000", "--seed", str(n))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1 : (1 << n) + 1]]
        labels = [label for label, _count in rows]
        assert len(set(labels)) == 1 << n and labels == sorted(labels)
        assert all(len(label) == n and set(label) <= set("+-") for label in labels)
        counts = json.loads(run(capsys, *argv, "--json")[1])["counts"]
        assert list(counts.items()) == [(label, int(count)) for label, count in rows]


def test_sample_deterministic_output(capsys, tmp_path):
    path = str(tmp_path / "bell.txt")
    run(capsys, "generate", "epr", "--kind", "psi", "--phase", "0.5", "--out", path)
    _, first, _ = run(capsys, "sample", path, "--bases", "xy", "--shots", "4000", "--seed", "8")
    _, second, _ = run(capsys, "sample", path, "--bases", "xy", "--shots", "4000", "--seed", "8")
    assert first == second


def test_search_json_reports_stop_telemetry(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "2", "--starts", "3", "--max-iter", "1",
        "--tol", "1e-12", "--seed", "3", "--json",
    )
    assert code == 1
    for r in json.loads(out)["results"]:
        assert r["stop_reason"] == "max_iter" and not r["converged"]
        assert r["cost_evals"] >= 2 and r["escapes"] == 0
    code, out, _ = run(capsys, "search", "--n", "4", "--starts", "2", "--seed", "1", "--json")
    assert code == 0
    assert {r["stop_reason"] for r in json.loads(out)["results"]} == {"converged"}


def test_generate_rejects_a_label_that_would_not_read_back(capsys, tmp_path):
    path = tmp_path / "g.txt"
    # every separator at which str.splitlines, and so parse_state, breaks a line
    for label in [f"a{sep}b" for sep in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"] + ["ab\x0b"]:
        with pytest.raises(ValueError, match="^label must be a single line$"):
            format_state(ghz("+"), label)
        code, out, err = run(capsys, "generate", "ghz", "--label", label, "--out", str(path))
        assert (code, out, err) == (2, "", "error: label must be a single line\n")
        assert not path.exists()
    with pytest.raises(ValueError, match="^label must be nonempty without surrounding"):
        format_state(ghz("+"), " a")
    # other control characters stay inside the one label line
    assert parse_state(format_state(ghz("+"), "a\x1fb\tc"))[1] == "a\x1fb\tc"


def test_generate_unencodable_label_leaves_out_untouched(capsys, tmp_path):
    # "bad\udcff" is how the shell argument $'bad\xff' reaches argv on POSIX
    path = tmp_path / "g.txt"
    assert main(["generate", "ghz", "--out", str(path)]) == 0
    before = path.read_bytes()
    code, out, err = run(capsys, "generate", "ghz", "--label", "bad\udcff", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't encode character '\\udcff'")
    assert path.read_bytes() == before


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_generate_out_to_dev_null_leaves_the_device(capsys):
    # --out writes into what is there; it never swaps a device for a regular file
    code, out, err = run(capsys, "generate", "ghz", "--out", "/dev/null")
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


def test_generate_out_through_a_symlink_keeps_the_link(capsys, tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(b"old contents\n")
    try:
        os.symlink(target.name, link)
    except (OSError, NotImplementedError):
        pytest.skip("no symlinks here")
    plain = tmp_path / "plain.txt"
    for path in (link, plain):
        assert run(capsys, "generate", "ghz", "--out", str(path))[:2] == (0, "")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == plain.read_bytes()


def _unwritable(tmp_path):
    """(path, reason) of an --out in a missing directory and of one that is a directory."""
    return [(str(tmp_path / "no-such-dir" / "x.txt"), "No such file or directory"),
            (str(tmp_path), "Is a directory")]


def test_generate_unwritable_out_exit_2(capsys, tmp_path):
    for path, reason in _unwritable(tmp_path):
        code, out, err = run(capsys, "generate", "ghz", "--out", path)
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")


def test_search_unwritable_out_exit_2(capsys, tmp_path):
    for (path, reason), mode in itertools.product(_unwritable(tmp_path), ((), ("--json",))):
        code, out, err = run(capsys, "search", "--n", "2", "--starts", "1", *mode, "--out", path)
        assert (code, out, err) == (2, "", f"error: cannot write {path}: {reason}\n")


def _stdlib_search_document(n, starts, seed, tol=1e-12, max_iter=DEFAULT_MAX_ITER):
    """The search --json document, built and encoded with json.dumps alone."""
    outcomes = multi_start(n, starts, tol, seed, max_iter=max_iter)
    doc = {
        "n": n,
        "starts": starts,
        "tol": tol,
        "seed": seed,
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
        "best_amplitudes": outcomes[0].state.amplitudes.view(np.float64).reshape(-1, 2).tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", outcomes[0].state


@pytest.mark.parametrize("n", range(2, 9))
def test_search_json_and_out_match_the_stdlib_rendering(capsys, tmp_path, n):
    seed = 10 + n
    path = tmp_path / "best.txt"
    code, out, _ = run(
        capsys, "search", "--n", str(n), "--starts", "2", "--seed", str(seed),
        "--json", "--out", str(path),
    )
    expected, best = _stdlib_search_document(n, 2, seed)
    assert code == 0
    assert out == expected
    assert path.read_text(encoding="utf-8") == format_state(best, f"search n={n} seed={seed}")


@pytest.mark.parametrize("n", range(2, 9))
def test_search_json_of_unconverged_runs_matches_the_stdlib_rendering(capsys, n):
    # one iteration leaves every start short of 1e-12, so each stops on max_iter
    seed = 20 + n
    code, out, _ = run(
        capsys, "search", "--n", str(n), "--starts", "3", "--seed", str(seed),
        "--max-iter", "1", "--json",
    )
    assert code == 1
    assert out == _stdlib_search_document(n, 3, seed, max_iter=1)[0]
    assert {(r["converged"], r["stop_reason"]) for r in json.loads(out)["results"]} == {
        (False, "max_iter")
    }
    if n == 2:  # at tol 1e-60 the run ends stuck, after its damping ladder and kicks
        code, out, _ = run(capsys, "search", "--n", "2", "--starts", "1", "--seed", "3",
                           "--tol", "1e-60", "--json")
        assert code == 1
        assert out == _stdlib_search_document(2, 1, 3, tol=1e-60)[0]
        assert json.loads(out)["results"][0]["stop_reason"] == "stuck"


def test_search_hands_the_results_template_python_scalars(capsys, monkeypatch):
    # np.float64 reprs as "np.float64(...)" under numpy 2, so the template needs Python scalars
    handed = []
    render = cli._json_block

    def spy(template, rows):
        rows = list(rows)
        if template == cli._RESULT_JSON:
            handed.extend(rows)
        return render(template, rows)

    monkeypatch.setattr(cli, "_json_block", spy)
    for argv in (("--n", "3"), ("--n", "8", "--starts", "2"), ("--n", "4", "--max-iter", "1"),
                 ("--n", "2", "--starts", "1", "--tol", "1e-60")):
        run(capsys, "search", *argv, "--seed", "5", "--json")
    assert {row[-1] for row in handed} == {"converged", "max_iter", "stuck"}
    # converged, cost_evals, escapes, final_cost, iterations, rank, seed, stop_reason
    types = (str, int, int, float, int, int, int, str)
    for row in handed:
        assert tuple(map(type, row)) == types
        assert row[0] in ("true", "false")


@pytest.mark.parametrize("n", range(2, 9))
def test_search_entropies_line_is_that_of_the_out_state(capsys, tmp_path, n):
    path = tmp_path / "best.txt"
    for extra in ((), ("--max-iter", "1")):
        argv = ["search", "--n", str(n), "--starts", "2", "--seed", str(30 + n), *extra,
                "--out", str(path)]
        _, text, _ = run(capsys, *argv)
        state, _ = read_state_file(path)
        entropies = site_marginals(local_expectations(state))[1].tolist()
        assert text.splitlines()[-1] == "best entropies (nats): " + " ".join(
            map(cli._fmt, entropies)
        )
        _, out, _ = run(capsys, *argv, "--json")
        pairs = np.array(json.loads(out)["best_amplitudes"], dtype=np.float64)
        rebuilt = State(n_qubits=n, amplitudes=pairs.view(np.complex128).ravel())
        assert rebuilt.amplitudes.tobytes() == state.amplitudes.tobytes()


def _analysis_input(kind, n, rng):
    """A criterion (rotated GHZ_n), Haar or product state on n qubits."""
    if kind == "haar":
        return haar_random_state(n, rng)
    if kind == "criterion":
        amps = np.zeros(1 << n)
        amps[[0, -1]] = 2 ** -0.5
        return apply_local_unitaries(State(n, amps), [haar_random_su2(rng) for _ in range(n)])
    # z, x and y eigenstates in turn: T holds exact zeros beside tiny round-off
    kets = [[1, 0], [2 ** -0.5, -(2 ** -0.5)], [2 ** -0.5, 1j * 2 ** -0.5]]
    amps = np.ones(1)
    for k in range(n):
        amps = np.kron(amps, kets[k % 3])
    return from_amplitudes(amps)


def _stdlib_analysis_document(state, label):
    """The analyze --json text, built from library calls and plain lists and encoded
    with json.dumps alone."""
    n = state.n_qubits
    crit = criterion_check(state, CRITERION_TOL)
    b = local_expectations(state).tolist()
    t = correlation_matrices(state).tolist()
    marginals = [reduced_entropy(state, k) for k in range(1, n + 1)]
    doc = {
        "n_qubits": n,
        "label": label,
        "criterion": {
            "satisfied": crit.satisfied,
            "max_abs_expectation": crit.max_abs_expectation,
            "tolerance": CRITERION_TOL,
        },
        "sites": [
            {
                "site": k + 1,
                "expectations": dict(zip("xyz", b[k])),
                "variances": {c: 1.0 - e * e for c, e in zip("xyz", b[k])},
                "entropy_nats": m.entropy_nats,
                "entropy_bits": m.entropy_nats / LN2,
                "eigenvalues": list(m.eigenvalues),
                "commutator_defect": commutator_defect(state, k + 1),
            }
            for k, m in enumerate(marginals)
        ],
        "correlation_matrices": [
            {"sites": [i + 1, j + 1], "t": t[i][j]} for i, j in itertools.combinations(range(n), 2)
        ],
        "constraint": None,
        "schmidt_coefficients": None,
        "trace_invariant": None,
    }
    if n == 2:
        con = constraint_check(as_coefficient_matrix(state), CONSTRAINT_TOL)
        doc["constraint"] = {
            "satisfied": con.satisfied,
            "degenerate": con.degenerate,
            "modulus_residuals": list(con.modulus_residuals),
            "phase_residual": con.phase_residual,
            "tolerance": CONSTRAINT_TOL,
        }
        doc["schmidt_coefficients"] = list(schmidt_coefficients(state))
        doc["trace_invariant"] = trace_invariant(state)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# no criterion state at n = 1: every one-qubit pure state has a unit Bloch vector
@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in range(1, 9) for kind in ("criterion", "haar", "product")
     if n > 1 or kind != "criterion"],
)
def test_analyze_json_matches_the_stdlib_rendering(capsys, tmp_path, n, kind):
    state = _analysis_input(kind, n, np.random.default_rng(100 + n))
    path = tmp_path / "state.txt"
    labels = (None, '"correlation_matrices": null', '"sites": null', ']},"t"', "\u03c8\u207a \u00e9tat")
    for label in labels:
        write_state_file(path, state, label)
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert out == _stdlib_analysis_document(*read_state_file(path))
    if kind == "criterion":
        assert json.loads(out)["criterion"]["satisfied"]


def _stdlib_sample_document(state, bases, shots, seed):
    """The sample --json text, built from plain lists and encoded with json.dumps alone."""
    n = state.n_qubits
    record = sample_outcomes(state, axes_from_chars(bases), shots, seed)
    means, products = (m.tolist() for m in empirical_moments(record))
    nats = mutual_information_matrix(record).tolist()
    pairs = list(itertools.combinations(range(n), 2))
    doc = {
        "bases": bases,
        "shots": shots,
        "seed": seed,
        "counts": {
            "".join("+" if v > 0 else "-" for v in oracles.outcome_tuple(k, n)): count
            for k, count in enumerate(record.binned.tolist())
            if count
        },
        "expectations": [
            {"site": i + 1, "value": m, "std_err": math.sqrt((1.0 - m * m) / shots)}
            for i, m in enumerate(means)
        ],
        "correlations": [
            {
                "sites": [i + 1, j + 1],
                "product_mean": products[i][j],
                "covariance": products[i][j] - means[i] * means[j],
                "std_err": math.sqrt((1.0 - products[i][j] ** 2) / shots),
            }
            for i, j in pairs
        ],
        "mutual_information": [
            {"sites": [i + 1, j + 1], "nats": nats[i][j], "bits": nats[i][j] / LN2}
            for i, j in pairs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", range(1, 9))
def test_sample_json_matches_the_stdlib_rendering(capsys, tmp_path, n):
    ghz_n = np.zeros(1 << n)
    ghz_n[[0, -1]] = 2 ** -0.5
    inputs = [  # (state, bases, outcomes seen at 10^6 shots when fixed)
        (_analysis_input("criterion", n, np.random.default_rng(200 + n)), "xyz" * 3, None),
        (State(n, ghz_n), "z" * n, 2),
        (from_amplitudes(np.eye(1 << n)[0]), "x" * n, 1 << n),
    ]
    path = tmp_path / "state.txt"
    for state, bases, support in inputs:
        write_state_file(path, state)
        for shots in (10**4, 10**6):
            argv = ("sample", str(path), "--bases", bases[:n], "--shots", str(shots), "--seed", "9")
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0
            assert out == _stdlib_sample_document(read_state_file(path)[0], bases[:n], shots, 9)
            if support is not None and shots == 10**6:
                assert len(json.loads(out)["counts"]) == support


_EDGE = [-0.0, 5e-324, -5e-324, 1e16, 1e-09, -1e-09, 0.1]
_ROLLED = _EDGE[1:] + _EDGE[:1]
_EDGE_T = [[5e-324, -0.0, 1e-09], [1e16, 0.0, -1.0], [-5e-324, 0.1, -1e-09]]
# Every splice template of the CLI by the key it fills, and one built with its keys
# out of sorted order; then each one's entries, with edge values.
_TEMPLATES = {
    "best_amplitudes": cli._AMPLITUDE_JSON,
    "results": cli._RESULT_JSON,
    "correlation_matrices": cli._PAIR_JSON,
    "sites": cli._SITE_JSON,
    "expectations": cli._EXPECTATION_JSON,
    "correlations": cli._CORRELATION_JSON,
    "mutual_information": cli._INFORMATION_JSON,
    "unsorted": cli._template({"b": "%d", "a": "%r", "c": {"z": '"%s"', "y": "%s"}}),
}
_EDGE_ENTRIES = {
    "best_amplitudes": [[0.1, 0.0], [5e-324, 1e-09], [-0.6, -0.0], [-0.0, 0.7937253933193772]],
    "results": [
        {"rank": k + 1, "seed": seed, "iterations": k, "final_cost": cost, "converged": converged,
         "stop_reason": reason, "cost_evals": 3 * k + 1, "escapes": k % 2}
        for k, (cost, seed, reason, converged) in enumerate([
            (0.0, 0, "converged", True),
            (5e-324, 2**64 - 1, "converged", True),
            (1e16, 2**64 - 1, "max_iter", False),
            (0.1, 0, "stuck", False),
        ])
    ],
    "correlation_matrices": [{"sites": [1, 2], "t": _EDGE_T}, {"sites": [7, 8], "t": _EDGE_T[::-1]}],
    "sites": [
        {
            "site": k + 1,
            "commutator_defect": x[0],
            "eigenvalues": x[1:3],
            "entropy_bits": x[3],
            "entropy_nats": x[4],
            "expectations": dict(zip("xyz", x[5:8])),
            "variances": dict(zip("xyz", x[8:11])),
        }
        for k, x in enumerate([(_EDGE * 3)[k:k + 11] for k in range(8)])
    ],
    "expectations": [
        {"site": k + 1, "value": v, "std_err": w} for k, (v, w) in enumerate(zip(_EDGE, _ROLLED))
    ],
    "correlations": [
        {"sites": [1, k + 2], "product_mean": v, "covariance": w, "std_err": v}
        for k, (v, w) in enumerate(zip(_EDGE, _ROLLED))
    ],
    "mutual_information": [
        {"sites": [k + 1, 8], "nats": v, "bits": w} for k, (v, w) in enumerate(zip(_ROLLED, _EDGE))
    ],
    "unsorted": [
        {"b": 2**62 + k, "a": v, "c": {"z": "max_iter", "y": k % 2 == 0}} for k, v in enumerate(_EDGE)
    ],
}


def _spliced(block: str) -> str:
    return '{\n  "a": ' + block + "\n}"


@pytest.mark.parametrize("key", list(_TEMPLATES))
def test_every_template_matches_json_dumps_on_edge_values(key):
    assert {t for name, t in vars(cli).items() if name.endswith("_JSON")} < set(_TEMPLATES.values())
    entries = _EDGE_ENTRIES[key]
    for some in (entries, entries[:1], []):  # n = 1 has no pairs
        expected = json.dumps({"a": some}, indent=2, sort_keys=True)
        block = cli._json_block(_TEMPLATES[key], map(oracles.json_leaves, some))
        assert _spliced(block) == expected
    if key == "best_amplitudes":  # search splices the reprs format_state writes
        state = State(2, np.array(entries).view(complex).ravel())
        assert np.linalg.norm(state.amplitudes) == 1.0
        assert state.amplitudes.tobytes() == np.array(entries).tobytes()  # kept as given, -0.0 too
        reprs = iter(format_state(state).split()[-8:])
        expected = json.dumps({"a": entries}, indent=2)
        assert _spliced(cli._json_block(cli._AMPLITUDE_JSON, zip(reprs, reprs))) == expected


def test_sample_counts_block_matches_json_dumps_at_2_to_the_62_shots(capsys, tmp_path):
    # a basis state: the z site takes every shot, the x site splits them in two
    path = tmp_path / "basis.txt"
    write_state_file(path, from_amplitudes(np.eye(4)[2]))
    for bases, labels in (("zz", ["-+"]), ("zx", ["-+", "--"])):
        code, out, _ = run(capsys, "sample", str(path), "--bases", bases, "--shots", str(2**62),
                           "--json")
        doc = json.loads(out)
        assert code == 0 and out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert list(doc["counts"]) == labels and sum(doc["counts"].values()) == 2**62


def test_analyze_and_sample_hand_their_templates_python_scalars(capsys, tmp_path, monkeypatch):
    # np.float64 reprs as "np.float64(...)" under numpy 2, so the templates need Python scalars
    handed = {}
    render = cli._json_block

    def spy(template, rows):
        rows = list(rows)
        handed.setdefault(template, []).extend(rows)
        return render(template, rows)

    monkeypatch.setattr(cli, "_json_block", spy)
    path = tmp_path / "state.txt"
    for kind, mode in (("haar", ("--json",)), ("product", ())):
        write_state_file(path, _analysis_input(kind, 3, np.random.default_rng(7)))
        run(capsys, "analyze", str(path), *mode)
        run(capsys, "sample", str(path), "--bases", "xyz", "--shots", "1000", "--seed", "5", *mode)
    templates = (cli._PAIR_JSON, cli._SITE_JSON, cli._EXPECTATION_JSON, cli._CORRELATION_JSON,
                 cli._INFORMATION_JSON)
    assert set(handed) == set(templates)
    for template in templates:
        # each "%r" leaf takes a float and each "%d" leaf an int, in template order
        types = tuple({"%r": float, "%d": int}[f] for f in re.findall(r"%[rd]", template))
        assert len(handed[template]) == 2 * 3  # three sites or three pairs, two runs
        for row in handed[template]:
            assert tuple(map(type, row)) == types


def test_analyze_missing_file_exit_2_without_line(capsys, tmp_path):
    path = str(tmp_path / "missing.txt")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert err == f"error: cannot read {path}: No such file or directory\n"


@pytest.mark.parametrize("argv", [("analyze",), ("sample", "--bases", "z")])
def test_undecodable_file_is_an_error_naming_it(capsys, tmp_path, argv):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text (")
    with pytest.raises(StateFileError) as exc:
        read_state_file(path)
    assert exc.value.line is None


def test_main_builds_no_parser(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    path = str(tmp_path / "bell.txt")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run(capsys, "generate", "epr", "--kind", "varphi", "--out", path)[0] == 0
    code, out, _ = run(capsys, "analyze", path, "--tol", "1e-3", "--json")
    assert code == 0 and json.loads(out)["criterion"]["tolerance"] == 1e-3
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0 and '"tolerance": 1e-09' in out
    assert json.loads(out)["criterion"]["tolerance"] == 1e-9
    assert run(capsys, "search", "--n", "2", "--starts", "1", "--seed", "1")[0] == 0
    assert run(capsys, "sample", path, "--bases", "zz", "--shots", "10")[0] == 0
    assert run(capsys, "verify", "--trials", "1")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def _exit_and_streams(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_parses_as_the_whole_tree_does(capsys, tmp_path, monkeypatch):
    # main hands argv to the parser its first word names; with no names to
    # match it runs _PARSER.parse_args on the whole argv, the reference here
    path = str(tmp_path / "bell.txt")
    write_state_file(path, epr_family("varphi", 0.0), "bell")
    calls = [
        ["analyze", path, "--json"],
        ["generate", "ghz", "--sign", "-"],
        ["search", "--n", "2", "--starts", "1", "--seed", "1"],
        ["verify", "--trials", "1"],
        ["sample", path, "--bases", "zz", "--shots", "10"],
        ["search", "--bogus"],
        ["search", "--n", "2", "stray", "--bogus"],
        ["generate", "ghz", "stray"],
        ["analyze"],
        ["sample", path],
        ["analyz", path],
        [],
        ["-h"],
        ["search", "-h"],
        ["generate", "bogus"],
        ["--bogus", "search"],
        ["search", "--", "stray"],
        ["analyze", "--", path],
    ]
    codes = set()
    for argv in calls:
        got = _exit_and_streams(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_COMMANDS", {})
            want = _exit_and_streams(capsys, argv)
        assert got == want, argv
        codes.add(got[0])
    assert codes == {0, 2}


def _text_and_json(capsys, argv):
    """(exit code, stdout) of argv in text mode and with --json."""
    return _exit_and_streams(capsys, argv)[:2], _exit_and_streams(capsys, [*argv, "--json"])[:2]


@pytest.fixture
def state_files(tmp_path):
    paths = {name: str(tmp_path / f"{name}.txt") for name in ("constrained", "ghz-", "haar8")}
    write_state_file(paths["constrained"], generate_constrained(random_constraint_params(5)))
    write_state_file(paths["ghz-"], ghz("-"))
    write_state_file(paths["haar8"], haar_random_state(8, 3))
    paths["out"] = str(tmp_path / "best.txt")
    return paths


@pytest.mark.parametrize(
    "command, argv",
    [
        ("analysis", ("analyze", "{constrained}")),
        ("analysis", ("analyze", "{ghz-}")),
        ("analysis", ("analyze", "{haar8}")),
        ("sample", ("sample", "{ghz-}", "--bases", "xyz", "--shots", "5000", "--seed", "4")),
        ("sample", ("sample", "{haar8}", "--bases", "xyzzyxxz", "--shots", "1000000")),
        ("verify", ("verify", "--trials", "3", "--seed", "2")),
        ("verify", ("verify", "--trials", "16", "--seed", "5", "--perturb", "1e-9",
                    "--constraint-tol", "1e-10")),
        ("search", ("search", "--n", "3", "--starts", "4", "--seed", "2")),
        ("search", ("search", "--n", "8", "--starts", "2", "--seed", "1")),
        ("search", ("search", "--n", "4", "--starts", "3", "--seed", "5", "--max-iter", "1")),
        ("search", ("search", "--n", "5", "--starts", "3", "--seed", "9", "--out", "{out}")),
    ],
)
def test_text_output_is_the_rendering_of_the_json_document(capsys, state_files, command, argv):
    argv = [a.format(**state_files) for a in argv]
    (code, text), (json_code, json_out) = _text_and_json(capsys, argv)
    doc = json.loads(json_out)
    assert code == json_code
    assert text == getattr(cli, f"_render_{command}")(doc) + "\n"
    if "1000000" in argv:
        assert len(doc["counts"]) == 256  # every label, in index order in both modes


def test_python_dash_m_entry_point_matches_main(capsys, tmp_path):
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    path = str(tmp_path / "ghz.txt")
    write_state_file(path, ghz("+"))
    calls = [
        (["analyze", path, "--json"], 0),
        (["search", "--n", "3", "--starts", "4", "--seed", "2"], 0),
        (["verify", "--trials", "6", "--perturb", "1e-2"], 1),
        (["analyze", str(tmp_path / "missing.txt")], 2),
    ]
    for argv, code in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "maxent.cli", *argv], env=env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == _exit_and_streams(capsys, argv)
        assert proc.returncode == code
