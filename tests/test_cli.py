import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from maxent import cli
from maxent.cli import main
from maxent.entanglement import commutator_defect, reduced_entropy
from maxent.measurement import local_expectations
from maxent.search import (
    generate_constrained,
    haar_random_state,
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
from maxent.states import State, epr_family, example_state, from_amplitudes, ghz

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


def test_generate_rejects_conflicting_flags(capsys):
    code, _, err = run(capsys, "generate", "constrained", "--random", "--r", "0.5")
    assert code == 2
    assert "mutually exclusive" in err
    code, _, err = run(capsys, "generate", "constrained")
    assert code == 2


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


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_analyze_rejects_a_non_positive_constraint_tol_for_every_n(tol, capsys, tmp_path):
    for family in (("epr", "--kind", "varphi"), ("ghz",)):
        path = str(tmp_path / f"{family[0]}.txt")
        assert main(["generate", *family, "--out", path]) == 0
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "analyze", path, "--constraint-tol", tol, *extra)
            assert (code, out) == (2, "")
            assert err == f"error: tolerance must be positive, got {float(tol)}\n"


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


def test_search_rejects_bad_n(capsys):
    code, _, err = run(capsys, "search", "--n", "1")
    assert code == 2


def test_verify_passes_and_rejects_bad_trials(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--seed", "1")
    assert code == 0
    assert "result: all pass" in out
    for name in (
        "constructive", "converse", "lu_invariance", "commutator",
        "entropy_coupling", "correlation_orthogonality",
    ):
        assert f"{name}" in out and "5/5 pass" in out
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2


def test_verify_minimal_single_trial(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "1", "--seed", "4")
    assert code == 0


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


def test_generate_unwritable_out_exit_2(capsys, tmp_path):
    path = str(tmp_path / "no-such-dir" / "x.txt")
    code, out, err = run(capsys, "generate", "ghz", "--out", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_unwritable_out_exit_2(capsys, tmp_path):
    path = str(tmp_path / "no-such-dir" / "x.txt")
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, "search", "--n", "2", "--starts", "1", *mode, "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and path in err and "Traceback" not in err


def _stdlib_search_document(n, starts, seed):
    """The search --json document, built and encoded with json.dumps alone."""
    outcomes = multi_start(n, starts, 1e-12, seed)
    doc = {
        "n": n,
        "starts": starts,
        "tol": 1e-12,
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


def test_json_pairs_matches_json_dumps_on_edge_floats():
    flat = [0.1, 0.0, 5e-324, 1e-09, -0.6, -0.0, -0.0, 0.7937253933193772]
    state = State(2, np.array(flat).view(complex))
    assert np.linalg.norm(state.amplitudes) == 1.0
    assert state.amplitudes.tobytes() == np.array(flat).tobytes()  # kept as given, -0.0 too
    rows = format_state(state).splitlines()[-state.dim:]
    pairs = [flat[k:k + 2] for k in range(0, len(flat), 2)]
    assert '{\n  "a": ' + cli._json_pairs(rows) + "\n}" == json.dumps({"a": pairs}, indent=2)


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


def test_search_text_table_is_the_rendering_of_the_json_results(capsys):
    argv = ["search", "--n", "3", "--starts", "4", "--seed", "2"]
    (code, text), (json_code, json_out) = _text_and_json(capsys, argv)
    doc = json.loads(json_out)
    lines = text.splitlines()
    assert code == json_code == 0
    assert "\n".join(lines[:-1]) == cli._render_search(doc)
    assert lines[-1].startswith("best entropies (nats): ")
    rows = [line.split() for line in lines[2:-1]]
    assert len(rows) == len(doc["results"]) == 4
    for (rank, converged, iterations, final_cost, seed), result in zip(rows, doc["results"]):
        assert int(rank) == result["rank"] and converged == str(result["converged"]).lower()
        assert int(iterations) == result["iterations"] and int(seed) == result["seed"]
        assert float(final_cost) == float(f"{result['final_cost']:.9g}")


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
