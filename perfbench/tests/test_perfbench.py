"""Tests of the benchmark itself: checkers, references, tracer, bare checkout.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

cli = run._import_cli()
STORED = workloads.load_stored_reference(run.STORED_REFERENCE)


def _ops(workload: str, tmp_path: Path, round_no: int = 1) -> list[workloads.Op]:
    return workloads.make_round(workload, 7, round_no, tmp_path, STORED)


def _part(part: str, tmp_path: Path) -> list[workloads.Op]:
    return workloads.make_part(part, 7, 1, tmp_path, STORED)


def _inputs(op: workloads.Op) -> list:
    """The op's argv with each config path replaced by the config it names."""
    return [Path(a).read_text() if a.endswith(".json") else a for a in op.argv]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_shape_and_change_only_non_fixed_inputs(workload, tmp_path):
    one, two = _ops(workload, tmp_path, 1), _ops(workload, tmp_path, 2)
    assert [(op.kind, op.work, op.fixed_input) for op in one] == [
        (op.kind, op.work, op.fixed_input) for op in two
    ]
    for a, b in zip(one, two):
        assert (_inputs(a) == _inputs(b)) == a.fixed_input, a.argv


def test_repeat_guard_flags_reuse_across_rounds():
    fixed = workloads.Op("verify-orders", [], 1, fixed_input=True)
    fresh = workloads.Op("sweep", [], 1)
    steady = [[1.0, 0.9, 1.1, 1.0], [5.0, 0.1, 0.1, 0.1]]
    assert run._repeat_speedup([fixed, fresh], steady) == pytest.approx(1 / 1.1)
    cached = [[1.0, 0.01, 0.01, 0.01], [5.0, 5.0, 5.0, 5.0]]
    assert run._repeat_speedup([fixed, fresh], cached) > run.REPEAT_LIMIT
    assert run._repeat_speedup([fresh], cached) is None


def test_negative_control_counts_as_failure():
    control = workloads.negative_control()
    rc, _, text = run._run_op(cli, control)
    assert rc == 1
    problems = checks.check(control, rc, text)
    assert any("ok=0" in p for p in problems)
    assert any("margin" in p for p in problems)


def test_positive_control_passes():
    control = workloads.negative_control()
    control.argv = control.argv[: control.argv.index("--loosen")]
    rc, _, text = run._run_op(cli, control)
    assert rc == 0
    assert checks.check(control, rc, text) == []


def _perturb(text: str, column: str, row: int, factor: float) -> str:
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[start].split(",")
    cells = lines[start + 1 + row].split(",")
    k = cols.index(column)
    cells[k] = repr(float(cells[k]) * factor)
    lines[start + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("index", [0, 15, 24, 39, 40, 55, 63])
def test_bounds_rows_match_reference_and_perturbations_fail(index, tmp_path):
    op = _part("bounds-grid", tmp_path)[index]
    rc, _, text = run._run_op(cli, op)
    assert checks.check(op, rc, text) == []
    value = "D_bound"
    # 1e-9 relative (outward rounding) passes; 1e-6 (a wrong value) fails
    assert checks.check(op, rc, _perturb(text, value, 20, 1 + 1e-9)) == []
    assert checks.check(op, rc, _perturb(text, value, 20, 1 + 1e-6))
    # a decreasing curve fails even where the reference is not consulted
    op.expect["ref"] = None
    assert checks.check(op, rc, _perturb(text, value, 20, 1e-6))
    assert checks.check(op, 3, text)


def test_nonconvergence_row_fails(tmp_path):
    op = _part("bounds-grid", tmp_path)[0]
    rc, _, text = run._run_op(cli, op)
    flagged = text.replace("\nepsilon", "\n# non-convergence: epsilon=1\nepsilon", 1)
    assert checks.check(op, rc, flagged)


def test_float_reference_matches_stored_mp_reference():
    worst = 0.0
    for (n1, n2, eta), rows in STORED["qdd"].items():
        got = reference.qdd_rows(n1, n2, eta, [r[0] for r in rows])
        for want, g in zip(rows, got):
            for v, k in zip(want[1:], ("L_x", "L_y", "L_z", "D_bound", "D_leading")):
                worst = max(worst, abs(g[k] - v) / v)
    for (m, d, eta), rows in STORED["nudd"].items():
        got = reference.nudd_rows(m, d, eta, [r[0] for r in rows])
        for want, g in zip(rows, got):
            for v, k in zip(want[1:], ("Delta", "D_bound", "D_leading")):
                worst = max(worst, abs(g[k] - v) / v)
    assert worst < 1e-11


def test_certify_checker_wants_the_stated_witnesses(tmp_path):
    op = _part("certify", tmp_path)[0]
    rc, _, text = run._run_op(cli, op)
    assert checks.check(op, rc, text) == []
    op.expect["witness_status"] = dict(op.expect["witness_status"], x="inconclusive")
    assert checks.check(op, rc, text)


def test_simulate_checker_rejects_unitarity_and_margin_failures(tmp_path):
    op = _part("sim-large", tmp_path)[3]  # NUDD, bath 64
    rc, _, text = run._run_op(cli, op)
    assert checks.check(op, rc, text) == []
    doc = json.loads(text)
    doc["result"]["unitarity_residual"] = 1e-9
    assert checks.check(op, rc, json.dumps(doc))
    doc = json.loads(text)
    doc["result"]["margin"] = -1e-9
    assert checks.check(op, rc, json.dumps(doc))


def test_tracer_patches_importing_namespaces_and_restores(tmp_path):
    import ddbound.qdd_bounds as qb
    import ddbound.simulator as sim

    originals = (sim.evolve, qb.exp_series_tail)
    op = _part("sim-small", tmp_path)[1]  # verify bound, QDD, 24 cells
    tracer = Tracer()
    with tracer.patched():
        rc, _, text = run._run_op(cli, op, tracer)
    assert (sim.evolve, qb.exp_series_tail) == originals
    assert tracer.missing == []
    assert checks.check(op, rc, text) == []
    m = layer_metrics(tracer.spans, 1)
    assert m["qdd_bounds.calls"] == 24  # simulator.distance_bound, per cell
    assert m["sequences.calls"] == 24
    assert m["series.calls"] > 0
    assert m["simulator.evolve_events"] > 0
    # worker-thread spans hang off the CLI root, so its self time excludes them
    root = next(s for s in tracer.spans if s["layer"] == "cli")
    assert root["self"] < 0.5 * root["dur"]


def test_bare_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
