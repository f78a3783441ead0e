"""ddbound benchmark: one workload per run, every op through ``ddbound.cli.main``.

Usage, from the repository root (no install needed; ``src/`` is put on the
path the way the test suite uses ``PYTHONPATH=src``):

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md for what each should move).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Run protocol (closed loop, one client, one op at a time):

1. In this process: generate round 0's inputs and reference values, run one
   op of each op family untimed (warm-up), then run the negative control and
   check that the checker flags it.
2. Run rounds 1, 2, ..., each with its own inputs drawn from (seed, round),
   timing each op and checking its output after the clock stops, until the
   next round would end after ``--seconds``.  Between ops, one calibration
   op (``calibrate.py``) runs every ``CALIBRATION_INTERVAL_S``.  Set-up
   probes are spread between the rounds: each is a fresh process that
   imports ``ddbound.cli``, generates round 0's inputs and runs its first op.

Estimators.  The shared host of a small VM runs everything 1.3-2x slower for
stretches of a second to minutes, so a run's raw times depend on when it
ran.  Each op's time is its mean over the rounds, and the run's host factor
is the mean calibration-op time over ``calibrate.REFERENCE_S``; both are
time averages over the same stretch of the run, each without its slowest
``TRIM`` share of samples.  Times are divided by the
host factor and rates multiplied by it.  ``setup_s`` is the fastest probe,
divided by the host factor.  The raw figures are on the ``# info`` line.

Ops whose inputs are the same in every round (the preset bound cells and the
certification list) must not run more than ``REPEAT_LIMIT`` times faster in
later rounds than in round 1; a run where they do reports ``correct: false``,
because a cache of results across calls would be measured, not the program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import TYPE_CHECKING

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
STORED_REFERENCE = Path(__file__).resolve().parent / "data" / "preset_reference.json"
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60
MIN_ROUNDS = 2
CALIBRATION_INTERVAL_S = 0.3
TRIM = 0.1
REPEAT_LIMIT = 2.0

# One BLAS thread: a 256x256 complex product is faster on one thread than two
# on a 2-core machine, and one thread keeps runs repeatable.  One sweep worker
# keeps the traced self times exact (see tracer.Tracer).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DDBOUND_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402  (after the thread pins)

import workloads  # noqa: E402

if TYPE_CHECKING:
    from tracer import Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "series.calls": "count",
    "series.self_ms": "ms",
    "qdd_bounds.calls": "count",
    "qdd_bounds.self_ms": "ms",
    "nudd_bounds.calls": "count",
    "nudd_bounds.self_ms": "ms",
    "dyson.calls": "count",
    "dyson.self_ms": "ms",
    "dyson.words": "count",
    "dyson.rational.us_per_word": "us",
    "dyson.mp.us_per_word": "us",
    "simulator.evolve_ms": "ms",
    "simulator.evolve_events": "count",
    "simulator.evolve_gflop": "GFLOP-computed",
    "simulator.evolve_gflops": "GFLOP/s-computed",
    "simulator.build_model_ms": "ms",
    "simulator.run_experiment_self_ms": "ms",
    "simulator.extract_ms": "ms",
    "simulator.residuals_ms": "ms",
    "simulator.trace_distance_ms": "ms",
    "sequences.calls": "count",
    "sequences.self_ms": "ms",
    "sequences.events": "count",
    "cli.self_ms": "ms",
    "cli.emit_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class _Sink(io.StringIO):
    """Captured CLI stdout; an instance attribute can replace ``write``."""


def _import_cli():
    sys.path.insert(0, str(SRC))
    from ddbound import cli

    return cli


def _run_op(cli, op, tracer: Tracer | None = None) -> tuple[int, float, str]:
    """One CLI call: (exit code, wall seconds, captured stdout)."""
    sink = _Sink()
    if tracer is not None:
        sink.write = tracer.wrap("cli.emit", "stdout.write", sink.write)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                rc = tracer.call("cli", "ddbound.cli.main", cli.main, (op.argv,))
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the run must go on and count the op as failed
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, time.perf_counter() - start, sink.getvalue()


def _workdir(workload: str, seed: int) -> Path:
    return OUT_DIR / "inputs" / f"{workload}-seed{seed}"


def _probe(workload: str, seed: int) -> int:
    """Set-up probe body: import, generate inputs, first op, report.

    The op's output is not checked here; the timed rounds check it.
    """
    cli = _import_cli()
    ops = workloads.make_round(workload, seed, 0, _workdir(workload, seed), None)
    _run_op(cli, ops[0])
    print("ready", flush=True)
    return 0


def _setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Wall time of ``probes`` fresh processes from start to first op done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
        times.append(elapsed)
    return times


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    s = sorted(samples)
    if len(s) <= 10:  # no percentile has 10 samples beyond it: report the max
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def _environment(workload: str, seed: int, rounds: int) -> dict:
    from importlib import metadata  # not imported by the set-up probes

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    src = hashlib.sha256()
    for path in sorted((SRC / "ddbound").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _git_sha() -> str:
    """HEAD of the checkout; 'unavailable' outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples without the slowest ``TRIM`` share of them.

    A scheduler stall of 100 ms is several calibration ops long but a small
    share of an op's total time over a run; untrimmed, such stalls moved the
    host factor of single runs by up to 14%.
    """
    s = sorted(samples)
    return statistics.fmean(s[: len(s) - int(TRIM * len(s))])


def _normalised_round_s(per_op: list[list[float]], cal: list[float]) -> float:
    """Round time in units of the calibration op of the same rounds."""
    return sum(_trimmed_mean(t) for t in per_op) / _trimmed_mean(cal)


def _repeat_speedup(ops: list, per_op: list[list[float]]) -> float | None:
    """Round-1 time of the fixed-input ops over their slowest later round.

    At most 1.07 in 20 runs each of ``bounds-grid`` and ``certify`` on a
    shared machine with slow spells; far above 1 when results are reused
    across calls, which makes every later round fast.  None without two rounds or without
    fixed-input ops.
    """
    fixed = [t for op, t in zip(ops, per_op) if op.fixed_input]
    if not fixed or len(fixed[0]) < 2:
        return None
    per_round = [sum(t[r] for t in fixed) for r in range(len(fixed[0]))]
    return per_round[0] / max(per_round[1:])


def _part_rates(ops: list, typical: list[float], host: float) -> dict:
    """Each part's work (bound points, certified words or experiments) per
    second, host-normalised."""
    rates = {}
    for part in dict.fromkeys(op.part for op in ops):
        idx = [i for i, op in enumerate(ops) if op.part == part]
        rates[part] = host * sum(ops[i].work for i in idx) / sum(typical[i] for i in idx)
    return rates


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # imported here so that the set-up probes time the program's imports only
    import calibrate
    import checks
    from tracer import Tracer, layer_metrics

    cli = _import_cli()
    stored = workloads.load_stored_reference(STORED_REFERENCE)
    workdir = _workdir(workload, seed)
    warm_ops = workloads.make_round(workload, seed, 0, workdir, stored)

    warmed = set()
    for op in warm_ops:
        if op.family not in warmed:
            warmed.add(op.family)
            _run_op(cli, op)
    control = workloads.negative_control()
    rc, _, text = _run_op(cli, control)
    control_detected = bool(checks.check(control, rc, text))
    calibrate.time_calibration(2)  # warm-up

    plain: list[list[float]] = [[] for _ in warm_ops]
    traced: list[list[float]] = [[] for _ in warm_ops]
    # calibration-op times in plain (False) and traced (True) rounds
    cal: dict[bool, list[float]] = {False: [], True: []}
    cal_at = [0.0]
    tracer = Tracer() if trace else None
    failed = 0
    round_no = 0

    def one_round(tr: Tracer | None) -> None:
        nonlocal failed, round_no
        round_no += 1
        ops = workloads.make_round(workload, seed, round_no, workdir, stored)
        for i, op in enumerate(ops):
            if tr is not None:
                tr.op += 1
            if time.perf_counter() - cal_at[0] >= CALIBRATION_INTERVAL_S:
                cal[tr is not None].extend(calibrate.time_calibration(1))
                cal_at[0] = time.perf_counter()
            rc, dt, text = _run_op(cli, op, tr)
            (plain if tr is None else traced)[i].append(dt)
            problems = checks.check(op, rc, text)
            if problems:
                failed += 1
                print(f"# FAILED {' '.join(op.argv)}: {problems[:3]}", file=sys.stderr)

    setup: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        # stop before a round that would end past ``seconds``; a program many
        # times slower than today still gets MIN_ROUNDS rounds
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
        if not trace:  # set-up probes spread over the run
            due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / seconds))
            setup += _setup_seconds(workload, seed, due - len(setup))
        one_round(None)
        if trace:  # alternate plain and traced rounds
            with tracer.patched():
                one_round(tracer)
        rounds += 1
    if not trace:
        setup += _setup_seconds(workload, seed, SETUP_PROBES - len(setup))
    attempted = rounds * len(warm_ops) * (2 if trace else 1)

    samples = [t for per_op in plain for t in per_op]
    raw_tail, pct = _tail(samples)
    speedup = _repeat_speedup(warm_ops, plain)
    reused = speedup is not None and speedup > REPEAT_LIMIT
    if reused:
        print(f"# FAILED fixed-input ops ran {speedup:.3g}x faster after round 1 "
              f"(limit {REPEAT_LIMIT}): results are reused across calls", file=sys.stderr)
    info = {
        "ops_per_round": len(warm_ops),
        "samples": len(samples),
        "raw_tail_ms": 1e3 * raw_tail,
        "raw_tail_percentile": round(pct, 2),
        "repeat_speedup": speedup,
        "failed_frac": failed / attempted,
        "negative_control_detected": control_detected,
    }
    if trace:
        traced_ops = rounds * len(warm_ops)
        metrics = layer_metrics(tracer.spans, traced_ops)
        metrics["trace.overhead_frac"] = (
            _normalised_round_s(traced, cal[True]) / _normalised_round_s(plain, cal[False])
            - 1.0
        )
        info["unpatched"] = tracer.missing
        trace_path = OUT_DIR / "trace" / f"{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        units = PER_LAYER_UNITS
    else:
        host = _trimmed_mean(cal[False]) / calibrate.REFERENCE_S
        typical = [_trimmed_mean(t) for t in plain]
        info["host_factor"] = host
        info["raw"] = {
            "setup_s": min(setup),
            "calls_per_s": len(typical) / sum(typical),
            "op_ms_p50": 1e3 * statistics.median(typical),
        }
        info["work_per_s"] = _part_rates(warm_ops, typical, host)
        info["setup_probes_s"] = setup
        samples_path = OUT_DIR / "samples" / f"{workload}-seed{seed}.json"
        samples_path.parent.mkdir(parents=True, exist_ok=True)
        samples_path.write_text(json.dumps(
            {"op_seconds": plain, "setup_s": setup, "calibration_s": cal[False]}))
        metrics = {
            "setup_s": info["raw"]["setup_s"] / host,
            "calls_per_s": info["raw"]["calls_per_s"] * host,
            "op_ms_p50": info["raw"]["op_ms_p50"] / host,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "env": _environment(workload, seed, rounds),
        "info": info,
        "correct": failed == 0 and control_detected and not reused,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _print_result(result: dict) -> None:
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print("# info " + json.dumps(result["info"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{result['env']['workload']:12s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{result['env']['workload']:12s} {'failed_frac':34s} "
          f"{result['info']['failed_frac']:.6g} 1")


def _run_all(args) -> int:
    """Each workload in a fresh process; one table, one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ddbound" / "cli.py").is_file():
        print(f"error: no ddbound sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe(args.workload, args.seed)
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
