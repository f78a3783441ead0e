"""The demo scripts run to completion against the current API."""

import contextlib
import io
import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_run():
    assert DEMOS
    for path in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        assert out.getvalue(), path.name
