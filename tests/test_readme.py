"""The README's "Library quickstart" block runs and prints what it promises."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_block(), str(README), "exec"), {})
    flat_line, residual, minrank_line = out.getvalue().splitlines()
    assert flat_line == "True 16 16"
    assert float(residual) < 1e-12
    assert minrank_line == "1 True"
