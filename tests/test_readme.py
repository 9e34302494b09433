"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The bodies of the fenced ``python`` blocks of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_guard_finds_each_python_block():
    text = "a\n```python\nx = 1\n```\n```sh\nls\n```\n```python\ny = 2\n```\n"
    assert python_blocks(text) == ["x = 1\n", "y = 2\n"]


def test_python_api_in_one_minute_runs(capsys):
    section = README.read_text().split("## Python API in one minute", 1)[1]
    block = python_blocks(section)[0]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["w"].shape == (4, 4)
    assert float(capsys.readouterr().out) <= 1e-12
