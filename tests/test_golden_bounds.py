"""Golden outputs of the bounds commands, byte for byte.

``golden_bounds.json`` holds, per argv, the sha256 of the stdout and stderr
of an in-process ``cli.main`` call and its exit code.  Re-record it with
``record_golden_bounds.py --reason ...`` only when an output changes on
purpose.
"""

import json

import pytest

from record_golden_bounds import GOLDEN, run

ENTRIES = json.loads(GOLDEN.read_text())["entries"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_bounds_output_frozen(entry):
    got = run(entry["argv"])
    assert got == {k: entry[k] for k in got}
