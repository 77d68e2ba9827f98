"""Seeded CLI --json outputs pinned byte for byte.

Each case writes its input state with ``generate`` (when it needs one), runs
one command, checks its exit code and compares stdout with
``tests/golden/<name>.json``. A change that moves any of these bytes must
update the file and declare the diff.
"""

import pathlib

import pytest

from maxent.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (generate argv or None, command argv with {path} for the input file,
#          expected exit code)
CASES = {
    "analyze": (
        ("generate", "constrained", "--random", "--seed", "5"),
        ("analyze", "{path}", "--json"),
        0,
    ),
    "sample": (
        ("generate", "ghz", "--sign", "-"),
        ("sample", "{path}", "--bases", "xyz", "--shots", "5000", "--seed", "4", "--json"),
        0,
    ),
    "verify": (None, ("verify", "--trials", "3", "--seed", "2", "--json"), 0),
    # mixed pass counts (constructive 7/16, converse 14/16) pin the failing
    # path and the order of every property's draws
    "verify_perturbed": (
        None,
        ("verify", "--trials", "16", "--seed", "5", "--perturb", "1e-9",
         "--constraint-tol", "1e-10", "--json"),
        1,
    ),
    "search": (None, ("search", "--n", "3", "--starts", "4", "--seed", "2", "--json"), 0),
}


def run_case(name: str, workdir: pathlib.Path, capsys) -> tuple[int, str]:
    setup, argv, _code = CASES[name]
    path = workdir / f"{name}-input.txt"
    if setup is not None:
        assert main([*setup, "--out", str(path)]) == 0
        capsys.readouterr()
    code = main([a.format(path=path) for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json_output(name, tmp_path, capsys):
    code, out = run_case(name, tmp_path, capsys)
    assert code == CASES[name][2]
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
