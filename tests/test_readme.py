"""The README's library tour runs as written against the installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    section = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library tour'"
    exec(compile(block.group(1), "README.md (Library tour)", "exec"), {})
