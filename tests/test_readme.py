"""The README's library quick tour and command-line examples run as written."""

import pathlib
import re
import shlex

from maxent.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_quick_tour_runs():
    blocks = _blocks("python")
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], "README.md quick tour", "exec"), {})


def test_readme_command_lines_exit_as_stated(tmp_path, monkeypatch, capsys):
    lines = [
        line
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("maxent ")
    ]
    assert lines, "README.md has no maxent command line"
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        expected = 1 if comment.strip() == "exits 1" else 0
        assert main(shlex.split(command)[1:]) == expected, line
        capsys.readouterr()
