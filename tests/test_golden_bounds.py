"""Golden outputs of the CLI, byte for byte.

``golden_outputs.json`` holds, per call (an argv and the config files it
names), the sha256 of the stdout and stderr of an in-process ``cli.main``
call and its exit code.  Re-record it with ``record_golden.py --reason ...``
only when an output changes on purpose.  The test keeps the name it had when
the corpus held only the bounds commands, so that each entry keeps its id.
"""

import json

import pytest

from record_golden import GOLDEN, calls, key, run

ENTRIES = json.loads(GOLDEN.read_text())["entries"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[key(e["argv"], e.get("files")) for e in ENTRIES])
def test_bounds_output_frozen(entry):
    got = run(entry["argv"], entry.get("files"))
    assert got == {k: entry[k] for k in got}


def test_corpus_lists_the_recorded_calls():
    """The file lists exactly the calls the recorder would record now, so a
    change to the benchmark's rounds or to the recorder's lists cannot leave
    an entry stale or missing."""
    assert [(e["argv"], e.get("files")) for e in ENTRIES] == calls()
