"""The demo scripts and the README's quick start run against the current API."""

import contextlib
import io
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run():
    assert DEMOS
    for path in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        assert out.getvalue(), path.name


def test_readme_quick_start_runs():
    """The "Library quick start" block runs, printing one line per ``print``,
    and each line its comment marks ``True`` prints True."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints)
    claims = [line for stmt, line in zip(prints, lines) if "# True" in stmt]
    assert claims == ["True", "True"]
