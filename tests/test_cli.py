import argparse
import json
import math

import numpy as np
import pytest

from maxent.cli import main
from maxent.statefile import read_state_file
from maxent.states import example_state

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


def test_generate_unwritable_out_exit_2(capsys, tmp_path):
    path = str(tmp_path / "no-such-dir" / "x.txt")
    code, out, err = run(capsys, "generate", "ghz", "--out", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_unwritable_out_exit_2(capsys, tmp_path):
    path = str(tmp_path / "no-such-dir" / "x.txt")
    code, _, err = run(capsys, "search", "--n", "2", "--starts", "1", "--out", path)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_missing_file_exit_2_without_line(capsys, tmp_path):
    path = str(tmp_path / "missing.txt")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert err == f"error: cannot read {path}: No such file or directory\n"


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
