"""The README's code blocks run and print what they promise."""

import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def block(heading, language):
    """The first ``language`` code block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block("## Library quickstart", "python"), str(README), "exec"), {})
    flat_line, residual, minrank_line = out.getvalue().splitlines()
    assert flat_line == "True 16 16"
    assert float(residual) < 1e-12
    assert minrank_line == "1 True"


def test_cli_block_runs_through_the_module_entry_point(tmp_path):
    """Each command of the "CLI" block, run as ``python -m subspace_products``
    in a fresh interpreter, exits 0; the flatness report shows n = 3 LU flat."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    outputs = {}
    for line in block("## CLI", "sh").splitlines():
        program, command, *args = shlex.split(line)
        assert program == "subspace-products"
        done = subprocess.run(
            [sys.executable, "-m", "subspace_products", command, *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        outputs[command] = done.stdout
    assert sorted(outputs) == ["bound", "catalog", "flatness"]
    assert {p.name for p in tmp_path.iterdir()} == {"lower.json", "upper.json"}
    flatness = json.loads(outputs["flatness"])
    assert (flatness["seed"], flatness["result"]["lin_dim"], flatness["result"]["flat"]) == (7, 9, True)
    assert json.loads(outputs["bound"])["result"]["bound"] == 9
