"""Re-record ``golden_bounds.json``: the digests of the bounds commands' outputs.

Each entry is one ``bounds qdd``/``bounds nudd`` argv with the sha256 of its
stdout and of its stderr and its exit code, from an in-process
``ddbound.cli.main`` call.  The argvs are every bounds op of the benchmark's
``closed-form`` rounds 1-2 at seeds 5 and 7 (perfbench/workloads.py), the
presets ``--fig2`` to ``--fig5``, and the flagged-row argvs of
``test_cli.py::test_flagged_bounds_frozen``.  ``test_golden_bounds.py``
checks the file; re-record it only when an output changes on purpose:

    PYTHONPATH=src python tests/record_golden_bounds.py --reason "why the outputs moved"

The script prints every entry that moved, was added or was removed, and
appends the reason to the file's ``reasons``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

from ddbound.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden_bounds.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEEDS = (5, 7)
ROUNDS = (1, 2)
PRESETS = (
    ["bounds", "qdd", "--fig2"],
    ["bounds", "qdd", "--fig3"],
    ["bounds", "qdd", "--fig4"],
    ["bounds", "nudd", "--fig5"],
)
FLAGGED = (
    "bounds nudd --m 10 --dmin 3 --eta 100 --eps-max 50",
    "bounds qdd --n1 40 --n2 3 --eta 1e3 --eps-max 200 --eps-points 30",
    "bounds qdd --n1 60 --n2 60 --eta-x 1e-5 --eps-min 1e-9 --eps-points 30",
    "bounds nudd --m 1 --dmin 250 --eta 0.5 --eps-min 1e-6",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    """The digests and exit code of one in-process call, warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
    return {"stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue()), "code": code}


def argvs() -> list[list[str]]:
    """The recorded argvs, in order, each once."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    found = [
        op.argv
        for seed in SEEDS
        for round_no in ROUNDS
        for op in workloads.bounds_grid(seed, round_no, None)
    ]
    found += [list(a) for a in PRESETS] + [a.split() for a in FLAGGED]
    return list({tuple(a): a for a in found}.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True, help="why the recorded outputs change")
    args = parser.parse_args(argv)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"reasons": [], "entries": []}
    before = {" ".join(e["argv"]): e for e in old["entries"]}
    entries = [{"argv": a, **run(a)} for a in argvs()]
    after = {" ".join(e["argv"]): e for e in entries}
    for key, entry in after.items():
        if key not in before:
            print(f"added: {key}")
        elif entry != before[key]:
            print(f"moved: {key}")
    for key in before.keys() - after.keys():
        print(f"removed: {key}")
    doc = {"reasons": [*old["reasons"], args.reason], "entries": entries}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(entries)} entries written to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
