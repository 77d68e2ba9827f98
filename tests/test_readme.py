"""The README's library quick tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], "README.md quick tour", "exec"), {})
