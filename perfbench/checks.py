"""Output checks: an op fails unless its output proves the claim it makes.

An op fails on a nonzero exit code, a ``# non-convergence`` row, a failed
property check, or a mismatch with the reference.  ``check`` returns the list
of problems found; an empty list is a pass.

Tolerances:

* bound rows must match the reference to ``BOUND_RTOL`` relative.  The
  program agrees to ~2e-12 today; rigorous outward rounding would move
  values by up to ~1e-9, while a wrong order or formula moves them by
  factors.
* simulations need margin >= ``MARGIN_FLOOR`` and unitarity residuals
  <= ``UNITARITY_TOL`` (the program's own verify thresholds), which an
  eigenbasis propagator (~1e-13 away) also meets.
"""

from __future__ import annotations

import json
import math

from workloads import Op

BOUND_RTOL = 1e-7
EPS_RTOL = 1e-12
MARGIN_FLOOR = -1e-12
UNITARITY_TOL = 1e-10

_QDD_VALUES = ("L_x", "L_y", "L_z", "D_bound", "D_leading")
_NUDD_VALUES = ("Delta", "D_bound", "D_leading")


def _csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows keyed by the column line, and the problems seen while parsing."""
    problems = [ln for ln in text.splitlines() if ln.startswith("# non-convergence")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not body:
        return [], problems + ["no column line"]
    columns = body[0].split(",")
    rows = []
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(columns):
            problems.append(f"malformed row {ln!r}")
            continue
        rows.append(dict(zip(columns, cells)))
    return rows, problems


def _num(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, ValueError):
        return math.nan


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


def _check_bounds(op: Op, text: str, values: tuple[str, ...]) -> list[str]:
    rows, problems = _csv(text)
    ref = op.expect.get("ref")
    if len(rows) != op.work:
        return problems + [f"expected {op.work} rows, got {len(rows)}"]
    prev = None
    for i, row in enumerate(rows):
        vals = {k: _num(row, k) for k in ("epsilon",) + values}
        if not all(math.isfinite(v) and v > 0.0 for v in vals.values()):
            problems.append(f"row {i}: not finite and positive: {vals}")
            continue
        if prev is not None and any(vals[k] < prev[k] for k in vals):
            problems.append(f"row {i}: not monotone in epsilon")
        prev = vals
        if ref is None:
            continue
        want = dict(zip(("epsilon",) + values, ref[i]))
        if _rel(vals["epsilon"], want["epsilon"]) > EPS_RTOL:
            problems.append(f"row {i}: epsilon {vals['epsilon']!r} != {want['epsilon']!r}")
            continue
        for k in values:
            if _rel(vals[k], want[k]) > BOUND_RTOL:
                problems.append(f"row {i}: {k}={vals[k]!r}, reference {want[k]!r}")
    return problems


def _check_orders(op: Op, text: str) -> list[str]:
    try:
        cert = json.loads(text)["certification"]
    except (ValueError, KeyError, TypeError):
        return ["no certification record"]
    exp = op.expect
    problems = []
    if cert.get("certified") is not True or cert.get("violations"):
        problems.append(f"not certified: {cert.get('violations')}")
    if cert.get("backend") != exp["backend"] or cert.get("n_max") != exp["nmax"]:
        problems.append(f"ran {cert.get('backend')}/nmax={cert.get('n_max')}")
    orders = cert.get("orders") or {}
    if {ch: orders.get("d_" + ch) for ch in "xyz"} != exp["orders"]:
        problems.append(f"orders {orders} != {exp['orders']}")
    if cert.get("witness_status") != exp["witness_status"]:
        problems.append(f"witness_status {cert.get('witness_status')} != {exp['witness_status']}")
    return problems


def _check_experiment(prefix: str, margin: float, channel_margin: float,
                      residuals: list[float]) -> list[str]:
    problems = []
    if not margin >= MARGIN_FLOOR:
        problems.append(f"{prefix}: margin {margin!r}")
    if not channel_margin >= MARGIN_FLOOR:
        problems.append(f"{prefix}: channel margin {channel_margin!r}")
    if not all(r <= UNITARITY_TOL for r in residuals):
        problems.append(f"{prefix}: unitarity {max(residuals)!r}")
    return problems


def _check_rows(op: Op, text: str) -> list[str]:
    """``sweep`` and ``verify bound`` CSVs: one row per experiment."""
    rows, problems = _csv(text)
    if len(rows) != op.expect["cells"]:
        problems.append(f"expected {op.expect['cells']} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if "ok" in row and row["ok"] != "1":
            problems.append(f"row {i}: verifier reports ok={row['ok']}")
        problems += _check_experiment(
            f"row {i}",
            _num(row, "margin"),
            _num(row, "channel_margin_min"),
            [_num(row, "unitarity")],
        )
    return problems


def _check_simulate(op: Op, text: str) -> list[str]:
    try:
        res = json.loads(text)["result"]
        residuals = [res["unitarity_residual"], *res["cross_residuals"].values()]
        return _check_experiment(
            "result",
            res["margin"],
            min(res["channel_margins"].values()),
            [float(r) for r in residuals],
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed simulate record: {exc!r}"]


def check(op: Op, rc: int, text: str) -> list[str]:
    """Problems with one op's exit code and output; empty means it passed."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if op.kind == "bounds-qdd":
        return problems + _check_bounds(op, text, _QDD_VALUES)
    if op.kind == "bounds-nudd":
        return problems + _check_bounds(op, text, _NUDD_VALUES)
    if op.kind == "verify-orders":
        return problems + _check_orders(op, text)
    if op.kind in ("sweep", "verify-bound"):
        return problems + _check_rows(op, text)
    if op.kind == "simulate":
        return problems + _check_simulate(op, text)
    raise ValueError(f"unknown op kind {op.kind!r}")
