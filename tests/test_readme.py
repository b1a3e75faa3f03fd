"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no python block under 'Library quick start'"
    code = block.group(1)
    assert "\nT = 4000\n" in code
    exec(compile(code.replace("\nT = 4000\n", "\nT = 1000\n"), README, "exec"), {})
    assert "label accuracy" in capsys.readouterr().out
