"""Re-record ``golden_outputs.json``: the golden outputs of every CLI command.

Each entry is one argv, with the JSON configs it names (``files``, written
into a fresh working directory before the call), the sha256 of its stdout and
of its stderr, and its exit code, from an in-process ``ddbound.cli.main``
call with warnings as errors.  The calls, in order:

* every ``bounds`` and ``verify orders`` op of the benchmark's
  ``closed-form`` rounds 1-2 at seeds 5 and 7 (perfbench/workloads.py);
* the presets ``--fig2`` to ``--fig5``, and ``--fig2`` in numeric-footnote mode;
* bounds cells with flagged rows (``FLAGGED``);
* one call of each command whose header or record carries a config hash that
  does not depend on the floating-point libraries (``CONFIG_HASH``);
* small experiment runs (``EXPERIMENTS``): ``sweep``, ``verify bound`` and
  ``simulate``, QDD and NUDD.  Their stdout holds simulated distances, whose
  last bits depend on the BLAS and LAPACK that numpy links; they are the only
  such entries;
* invalid input (``ERRORS``): one ``error:`` line of the program's own, and
  the exit code.

``test_golden_bounds.py`` checks the file, and that it lists exactly these
calls.  Re-record it only when an output changes on purpose:

    PYTHONPATH=src python tests/record_golden.py --reason "why the outputs moved"

The script prints every entry that moved, was added or was removed, and
appends the reason to the file's ``reasons``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from ddbound.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEEDS = (5, 7)
ROUNDS = (1, 2)
PRESETS = (
    "bounds qdd --fig2",
    "bounds qdd --fig3",
    "bounds qdd --fig4",
    "bounds nudd --fig5",
    "bounds qdd --fig2 --mode numeric-footnote",
)
FLAGGED = (
    "bounds nudd --m 10 --dmin 3 --eta 100 --eps-max 50",
    "bounds qdd --n1 40 --n2 3 --eta 1e3 --eps-max 200 --eps-points 30",
    "bounds qdd --n1 60 --n2 60 --eta-x 1e-5 --eps-min 1e-9 --eps-points 30",
    "bounds nudd --m 1 --dmin 250 --eta 0.5 --eps-min 1e-6",
)

# Configs that run; ``test_cli.py`` reads them too.
CELL_CONFIG = {"n1": 2, "n2": 2, "eta": 1.0, "eps_points": 3}
SIM_CONFIG = {
    "kind": "qdd",
    "orders": [1, 1],
    "T": 0.1,
    "bath": {"dim": 4, "seed": 7, "norms": {"0": 1.0, "z": 0.5}},
}
SWEEP_CONFIG = {
    "kind": "qdd",
    "orders": [[1, 1], [2, 2]],
    "bath_dim": [4],
    "eps": [0.05],
    "eta": [0.5],
    "seeds": 2,
    "master_seed": 0,
}
# A config of each command that takes one, which runs one small cell.
BASE_CONFIGS = {
    "bounds qdd": {"n1": 1, "n2": 2, "eta": 0.5, "eps_points": 2},
    "bounds nudd": {"m": 2, "dmin": 1, "eta": 0.5, "eps_points": 2},
    "sweep": {**SWEEP_CONFIG, "orders": [[1, 1]], "bath_dim": [2], "seeds": 1},
    "simulate": SIM_CONFIG,
}

# (argv, files) of each call below; ``files`` maps a config name to its JSON.
CONFIG_HASH = (
    ("sequence --qdd 2 2", None),
    ("sequence --nudd 1,1 --qubits 1", None),
    ("bounds qdd --config cell.json", {"cell.json": CELL_CONFIG}),
    ("bounds nudd --m 2 --dmin 2 --eta 0.7 --eps-points 5", None),
    ("verify orders --qdd 1 1 --nmax 2", None),
)
EXPERIMENTS = (
    ("sweep --config sweep-qdd.json", {"sweep-qdd.json": {
        "kind": "qdd", "orders": [[1, 1], [2, 2]], "bath_dim": [2, 4], "eps": [0.05, 0.3],
        "eta": [0.5], "seeds": 1, "master_seed": 3}}),
    ("sweep --config sweep-nudd.json", {"sweep-nudd.json": {
        "kind": "nudd", "orders": [[1, 1, 1, 1]], "bath_dim": [2], "eps": [0.05, 0.2],
        "eta": [0.3], "seeds": 2, "master_seed": 5, "initial_state": "plus",
        "bath_state": "pure-random"}}),
    ("verify bound --qdd 2 2 --eps 0.1 --eta-x 0.5 --eta-z 0.2 --seeds 3 --bath-dim 4", None),
    ("verify bound --nudd 1,1,1,1 --qubits 2 --eps 0.05 --eta 0.5 --seeds 2 --bath-dim 2", None),
    ("simulate --config simulate-qdd.json", {"simulate-qdd.json": {
        **SIM_CONFIG,
        "bath": {"dim": 8, "seed": 7, "norms": {"0": 1.0, "x": 0.3, "y": 0.1, "z": 0.5}}}}),
    ("simulate --config simulate-nudd.json", {"simulate-nudd.json": {
        "kind": "nudd", "orders": [1, 1, 1, 1], "T": 0.2,
        "bath": {"dim": 4, "seed": 11, "norms": {"00": 1.0, "xz": 0.3, "y0": 0.5, "0x": 0.05}}}}),
)


def _cfg(argv: str, doc, flags: str = "") -> tuple[str, dict]:
    """A call of ``argv --config cfg.json flags``, with ``cfg.json`` holding ``doc``."""
    return f"{argv} --config cfg.json {flags}".strip(), {"cfg.json": doc}


_SIM_BATH = SIM_CONFIG["bath"]
_RUN_BATH = {"dim": 2, "seed": 0}
_RUN_GRID = {"kind": "qdd", "orders": [[1, 1]], "bath_dim": [2], "seeds": 1, "master_seed": 0}
_TINY_BATH = {"dim": 8, "seed": 1}
_VERIFY_CELL = "--eps 0.05 --seeds 1 --bath-dim 2"
_BAD_ETAS = ("--eta -1", "--eta nan", "--eta-x 0.3 --eta-y inf", "--eta-z -0.5")

ERRORS = (
    # sequence
    ("sequence --qdd -1 2", None),
    ("sequence", None),
    ("sequence --nudd 1,a --qubits 1", None),
    # an option outside its domain, as a flag or a config key
    ("bounds qdd --n1 2 --n2 2 --eps-max inf --eps-points 3", None),
    ("bounds nudd --m 1 --dmin 1 --eps-max inf --eps-points 3", None),
    ("bounds nudd --fig5 --eps-max inf --eps-points 3", None),
    ("bounds nudd --fig5 --eps-points 1", None),
    ("verify bound --nudd=-1,1 --qubits 1 --eps 0.1", None),
    ("verify bound --qdd 1 1 --eps 0.05 --seeds 1 --loosen nan", None),
    ("verify bound --qdd 1 1 --eps 0.05 --seeds 1 --loosen inf", None),
    ("bounds nudd --m 32 --dmin 1 --eta 1", None),
    ("bounds nudd --m 0 --dmin 1 --eta 1", None),
    ("verify orders --qdd 1 1 --nmax 0", None),
    *((f"bounds nudd --m 2 --dmin 2 --eta={eta}", None) for eta in ("inf", "nan", "-1")),
    *((f"{call} {eta}", None)
      for call in (f"verify bound --qdd 1 1 {_VERIFY_CELL}", "bounds qdd --n1 1 --n2 1")
      for eta in _BAD_ETAS),
    *((f"verify bound --nudd 1,1,1,1 --qubits 2 {_VERIFY_CELL} --eta {eta}", None)
      for eta in ("-1", "inf")),
    *(_cfg("sweep", {**SWEEP_CONFIG, "eta": [0.5, eta]}) for eta in (-1.0, float("inf"))),
    ("verify bound --nudd 1,1,1,1,1,1 --qubits 3 --eps 0.1 --seeds 1 --bath-dim 2", None),
    # every sequence order shares one domain, in [0, 10000]
    ("bounds qdd --n1 10001 --n2 2 --eta 1e-4 --eps-points 2", None),
    ("bounds qdd --n1 2 --n2 100000000 --eps-points 2", None),
    _cfg("bounds qdd", {"n1": 2, "n2": 10001}),
    ("bounds nudd --m 1 --dmin 10001 --eta 1", None),
    _cfg("bounds nudd", {"m": 1, "dmin": 20000}),
    ("sequence --qdd 1 10001", None),
    ("sequence --nudd 10001,1 --qubits 1", None),
    ("verify orders --qdd 10001 1 --nmax 1", None),
    ("verify bound --qdd 2 10001 --eps 0.1 --seeds 1", None),
    ("verify bound --nudd 1,10001 --qubits 1 --eps 0.1 --seeds 1", None),
    _cfg("simulate", {**SIM_CONFIG, "orders": [2, 10001]}),
    _cfg("sweep", {**SWEEP_CONFIG, "orders": [[1, 1], [10001, 1]]}),
    # a schedule of more than 10^6 intervals, the product of N_l + 1
    ("sequence --qdd 1000 1000", None),
    ("sequence --qdd 10000 10000", None),
    (f"sequence --nudd {','.join(['1'] * 20)} --qubits 10", None),
    ("verify orders --qdd 1000 1000 --nmax 1", None),
    ("verify bound --qdd 1000 1000 --eps 0.1 --seeds 1 --bath-dim 2", None),
    _cfg("simulate", {**SIM_CONFIG, "orders": [1000, 1000]}),
    _cfg("sweep", {**SWEEP_CONFIG, "orders": [[1, 1], [1000, 1000]]}),
    # a grid of more than 10^5 cells, the product of its axes' lengths and seeds
    ("verify bound --qdd 1 1 --eps 0.1 --seeds 100001", None),
    _cfg("sweep", {**SWEEP_CONFIG, "orders": [[1, 1]], "eps": [0.05] * 11, "seeds": 9091}),
    # rules across options, each option named by the flag or key that gave it
    ("bounds qdd --n1 2 --n2 2 --eta 1 --eta-x 0.5", None),
    _cfg("bounds qdd", {"eta": 1.0, "eta_x": 0.5, "n1": 2, "n2": 2}),
    _cfg("bounds qdd --n1 2 --n2 2 --eta 1", {"eta_z": 0.5}),
    _cfg("bounds qdd --n1 2 --n2 2 --eta-y 1", {"eta": 0.5}),
    ("bounds qdd --n1 2", None),
    _cfg("bounds qdd", {"n1": 2}),
    _cfg("bounds qdd", {"n2": 2}),
    ("bounds nudd --dmin 2", None),
    _cfg("bounds nudd", {"m": 3}),
    ("bounds qdd --fig3 --n2 3", None),
    _cfg("bounds qdd --fig3", {"n2": 3}),
    ("bounds nudd --fig5 --m 2", None),
    _cfg("bounds nudd --fig5", {"dmin": 2}),
    ("bounds qdd --n1 2 --n2 2 --eta 1 --eps-min 0.5 --eps-max 0.5", None),
    _cfg("bounds qdd --n1 2 --n2 2", {"eps_min": 0.5, "eps_max": 0.5}),
    _cfg("bounds qdd --n1 2 --n2 2 --eps-max 0.5", {"eps_min": 0.7}),
    ("bounds nudd --m 2 --dmin 1 --eps-min 2", None),
    _cfg("bounds nudd --fig5", {"eps_min": 2}),
    ("bounds qdd --n1 2 --n2 2 --eps-min 2 --eps-max 1 --eps-points 0", None),
    _cfg("bounds qdd --n1 2 --n2 2", {"eps_min": 2, "eps_max": 1, "eps_points": 0}),
    ("bounds nudd --fig5 --eps-min 2 --eps-max 1 --eps-points 0", None),
    _cfg("bounds nudd --m 2 --dmin 1", {"eps_min": 2, "eps_points": 0}),
    ("bounds nudd --fig5 --eps-min 2 --eps-max 1", None),
    ("verify bound --nudd 1,1 --eps 0.1", None),
    ("verify bound --nudd 1,1 --qubits 2 --eps 0.1", None),
    ("verify bound --nudd 1,1 --qubits 1 --eps 0.05 --eta-x 0.3", None),
    ("bounds qdd --eta-x 0.3 --eps-points 3", None),
    ("bounds nudd --eta 3", None),
    ("bounds qdd", None),
    # a preset fixes its own eta panels
    *(call
      for command, preset, keys in (("bounds qdd", "fig2", ("eta", "eta_x", "eta_y", "eta_z")),
                                    ("bounds qdd", "fig3", ("eta", "eta_z")),
                                    ("bounds nudd", "fig5", ("eta",)))
      for key in keys
      for value in (3.0, 0.0)
      for call in ((f"{command} --{preset} --{key.replace('_', '-')} {value}", None),
                   _cfg(f"{command} --{preset}", {key: value}))),
    ("bounds qdd --fig2 --eta 0.5", None),
    _cfg("bounds qdd --fig2", {"eta": 0.5}),
    # config files and their keys
    _cfg("sweep", [1]),
    _cfg("bounds qdd", {"n1": 1, "n2": 1, "eta": 1.0, "bogus": 5}),
    _cfg("simulate", {**SIM_CONFIG, "extra": True}),
    _cfg("sweep", {**SWEEP_CONFIG, "oops": 1}),
    *(_cfg(command, {**doc, "rel_tol": 1e-15}) for command, doc in sorted(BASE_CONFIGS.items())),
    _cfg("sweep", {**SWEEP_CONFIG, "orders": [[1, -1]]}),
    _cfg("sweep", {k: v for k, v in SWEEP_CONFIG.items() if k != "eps"}),
    _cfg("simulate", {k: v for k, v in SIM_CONFIG.items() if k != "T"}, "--seed 1"),
    _cfg("simulate", {**SIM_CONFIG, "rel_tol": 0.5}),
    _cfg("simulate", {**SIM_CONFIG, "bath": {**_SIM_BATH, "seed": "s"}}),
    _cfg("simulate", SIM_CONFIG, "--seed -1"),
    _cfg("simulate", {**SIM_CONFIG, "bath": {**_SIM_BATH, "norms": {"0": 1.0, "q": 0.5}}}),
    _cfg("simulate", {**SIM_CONFIG, "bath": {**_SIM_BATH, "norms": {"0": 1.0, "xz": 0.5}}}),
    _cfg("simulate", {**SIM_CONFIG, "tie_order": "outer-first"}),
    _cfg("sweep", {**SWEEP_CONFIG, "tie_order": "inner-first"}),
    _cfg("simulate", {**SIM_CONFIG, "bath": {**_SIM_BATH, "norms": {"0": 1.0, "z": 10**400}}}),
    _cfg("simulate", {**SIM_CONFIG, "bath": {**_SIM_BATH, "spin": 1}}),
    _cfg("simulate", {**SIM_CONFIG, "bath": {"dim": 4, "norms": _SIM_BATH["norms"]}}),
    *(_cfg("simulate", {**SIM_CONFIG, "bath": {**_SIM_BATH, key: value}})
      for key, value in (("dim", 3), ("seed", -1), ("norms", {"0": 1.0, "x": -0.5}))),
    *(_cfg(command, {**doc, key: "bogus"})
      for command, doc in (("simulate", SIM_CONFIG), ("sweep", SWEEP_CONFIG))
      for key in ("initial_state", "bath_state")),
    ("verify orders --qdd 3 3 --nmax 3 --backend rational", None),
    ("verify orders --qdd 2 2 --nmax 7", None),
    # rates, eigenvalues or eta beyond double range
    ("bounds qdd --n1 2 --n2 2 --eps-max 1e300 --eta 1e10", None),
    ("bounds nudd --m 31 --dmin 2 --eta 1e300 --eps-max 1e300", None),
    ("verify bound --qdd 1 1 --eps 1.7e308 --eta 1 --seeds 1 --bath-dim 2", None),
    ("verify bound --qdd 1 1 --eps 0.1 --eta 1e308 --seeds 1 --bath-dim 2", None),
    _cfg("simulate", {"kind": "qdd", "orders": [1, 1], "T": 1.7e308,
                      "bath": {**_RUN_BATH, "norms": {"0": 1, "x": 1}}}),
    _cfg("simulate", {"kind": "qdd", "orders": [1, 1], "T": 0.1,
                      "bath": {**_RUN_BATH, "norms": {"0": 1e-320, "x": 0.3}}}),
    _cfg("sweep", {**_RUN_GRID, "eps": [1.7e308], "eta": [1.0]}),
    _cfg("sweep", {**_RUN_GRID, "eps": [0.1], "eta": [1e308]}),
    _cfg("simulate", {**SIM_CONFIG, "T": 150,
                      "bath": {"dim": 2, "seed": 1, "norms": dict.fromkeys("0xyz", 1)}}),
    # a requested norm whose rescaled draw underflows to 0
    _cfg("simulate", {"kind": "qdd", "orders": [2, 2], "T": 0.1,
                      "bath": {**_TINY_BATH, "norms": {"0": 5e-324, "x": 0.3}}}),
    _cfg("simulate", {"kind": "qdd", "orders": [2, 2], "T": 0.1,
                      "bath": {**_TINY_BATH, "norms": {"0": 1.0, "x": 5e-324}}}),
    _cfg("simulate", {"kind": "nudd", "orders": [1, 1], "T": 0.1,
                      "bath": {**_TINY_BATH, "norms": {"0": 5e-324, "x": 0.3}}}),
    ("verify bound --qdd 1 1 --eps 0.1 --eta 5e-324 --seeds 1 --bath-dim 8", None),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def key(argv: list[str], files: dict | None) -> str:
    """An entry's name: its argv, then its files if it has any."""
    return " ".join(argv) + (f" {json.dumps(files, sort_keys=True)}" if files else "")


def run(argv: list[str], files: dict | None = None) -> dict:
    """The digests and exit code of one in-process call, warnings as errors,
    in a fresh working directory that holds ``files``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as where:
        os.chdir(where)
        try:
            for name, doc in (files or {}).items():
                Path(name).write_text(json.dumps(doc))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        code = cli_main(argv)
                    except SystemExit as exc:
                        code = exc.code
        finally:
            os.chdir(cwd)
    return {"stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue()), "code": code}


def calls() -> list[tuple[list[str], dict | None]]:
    """The recorded (argv, files) pairs, in order, each once."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    found = [
        (op.argv, None)
        for seed in SEEDS
        for round_no in ROUNDS
        for op in workloads.bounds_grid(seed, round_no, None)
    ]
    found += [(op.argv, None) for op in workloads.certify(SEEDS[0])]
    found += [(argv.split(), None) for argv in (*PRESETS, *FLAGGED)]
    found += [(argv.split(), files) for argv, files in (*CONFIG_HASH, *EXPERIMENTS, *ERRORS)]
    return list({key(*call): call for call in found}.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True, help="why the recorded outputs change")
    args = parser.parse_args(argv)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"reasons": [], "entries": []}
    before = {key(e["argv"], e.get("files")): e for e in old["entries"]}
    entries = [{"argv": a, **({"files": f} if f else {}), **run(a, f)} for a, f in calls()]
    after = {key(e["argv"], e.get("files")): e for e in entries}
    for name, entry in after.items():
        if name not in before:
            print(f"added: {name}")
        elif entry != before[name]:
            print(f"moved: {name}")
    for name in before.keys() - after.keys():
        print(f"removed: {name}")
    doc = {"reasons": [*old["reasons"], args.reason], "entries": entries}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(entries)} entries written to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
