"""Seeded inputs for the two benchmark workloads.

Every op is one ``ddbound.cli.main(argv)`` call.  A workload is a *round*: a
list of ops whose shape (commands, orders, dimensions, counts) is the same for
every seed and every round; the seed draws the random bound cells and the
eta, epsilon and T values.  A run repeats rounds for as long as it lasts.

No round repeats another's inputs where the workload can avoid it, so a cache
of results across calls cannot make a later round look cheaper than a user's
single call.  Each round draws fresh bath seeds and multiplies every eta,
epsilon and T by its own factor within ``INPUT_JITTER`` of 1.  That leaves
the series lengths, and so the cost of each op, the same in every round.
The fig2-fig5 preset cells and the certification list are fixed by
definition; their ops have ``fixed_input`` set, and the run checks that their
later rounds are not much faster than the first.

A workload is made of parts; why each part exists:

bounds-grid  41-point eps grids of ``bounds qdd``/``bounds nudd``; the
             tail series dominates, so vectorising the bounds over eps
             moves this part and no other.
certify      ``verify orders`` on both number backends; the only part
             that runs the word-integral certifier.
sim-small    24-cell ``sweep``/``verify bound`` calls at total dimension
             4..64, where Python overhead spread over all simulator layers
             dominates; batching cells moves this part.
sim-large    ``simulate`` at total dimension 256, where dense D^3 products
             in ``evolve`` dominate; the other side of any size-based choice.

``closed-form`` is bounds-grid then certify (no simulation), ``simulate`` is
sim-small then sim-large.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

#: Each workload is a round of ops drawn from these parts, in this order.
WORKLOADS = {
    "closed-form": ("bounds-grid", "certify"),
    "simulate": ("sim-small", "sim-large"),
}

EPS_POINTS = 41
EPS_GRID = tuple(float(x) for x in np.logspace(-4.0, 0.0, EPS_POINTS))
PANEL_ETAS = (1e-4, 1e-2, 1.0, 1e2)
RANDOM_BOUND_CELLS = 24
INPUT_JITTER = 1e-6
SIM_SMALL_CELLS = 24
QDD_ORDER_POOL = ((1, 1), (2, 2), (1, 4), (3, 3))

# (backend, n1, n2, nmax): exact rationals exist only for orders <= 2.  No
# op takes more than about 0.3 s on a quiet 2-core x86 VM, so each is timed
# many times in a run: (2, 2) and (4, 4) at nmax 5 and (10, 10) at nmax 4 took
# 0.7-1.6 s each and, timed a few times per run, their best times spread
# 20-40% between runs of the same code.
CERTIFY_OPS = (
    ("rational", 1, 1, 4),
    ("rational", 1, 2, 4),
    ("rational", 2, 1, 4),
    ("rational", 2, 2, 3),
    ("rational", 2, 2, 4),
    ("mp", 3, 3, 4),
    ("mp", 3, 4, 4),
    ("mp", 4, 4, 4),
    ("mp", 10, 10, 3),
)


@dataclass
class Op:
    """One CLI call, the work it represents, and what its output must show."""

    kind: str  # bounds-qdd | bounds-nudd | verify-orders | sweep | verify-bound | simulate
    argv: list[str]
    work: int  # bound points, certified words, or experiments
    expect: dict = field(default_factory=dict)
    fixed_input: bool = False  # the same argv in every round
    part: str = ""  # the part of the workload the op belongs to

    @property
    def family(self) -> str:
        """Ops of one family share code paths; each family is warmed up once."""
        return self.kind + ":" + str(self.expect.get("backend", ""))


def _r(x: float) -> str:
    return repr(float(x))


def _jitter(rng: np.random.Generator, x):
    """``x`` times a factor within ``INPUT_JITTER`` of 1 per element."""
    return x * (1.0 + INPUT_JITTER * rng.uniform(-1.0, 1.0, size=np.shape(x)))


def _latin(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """One jittered draw per equal-width stratum of [lo, hi], shuffled."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(edges)


# -------------------------------------------------------------- bounds-grid --


def preset_qdd_cells() -> list[tuple[int, int, tuple[float, float, float]]]:
    """The fig2, fig3 and fig4 cells: (N1, N2, (eta_x, eta_y, eta_z))."""
    cells = [(n, n, (e, e, e)) for e in PANEL_ETAS for n in (2, 6, 16, 34)]
    cells += [(n1, 10, (e, e, 1e-2)) for e, n1 in zip(PANEL_ETAS, (2, 10, 18, 34))]
    cells += [(n1, 9, (e, e, 1e-2)) for e, n1 in zip(PANEL_ETAS, (3, 10, 19, 34))]
    return cells


def preset_nudd_cells() -> list[tuple[int, int, float]]:
    """The fig5 cells: (m, d_min, eta)."""
    return [(10, d, e) for e in PANEL_ETAS for d in (5, 10, 20, 40)]


def nudd_grid(m: int, eta: float) -> tuple[float, ...]:
    """fig5 rescales each cell's grid into the representable window."""
    scale = 1.0 + (4**m - 1) * eta
    return tuple(e / scale for e in EPS_GRID)


def _qdd_op(n1: int, n2: int, eta, ref_rows, fixed_input: bool) -> Op:
    argv = [
        "bounds", "qdd", "--n1", str(n1), "--n2", str(n2),
        "--eta-x", _r(eta[0]), "--eta-y", _r(eta[1]), "--eta-z", _r(eta[2]),
        "--eps-min", _r(EPS_GRID[0]), "--eps-max", _r(EPS_GRID[-1]),
        "--eps-points", str(EPS_POINTS),
    ]
    return Op("bounds-qdd", argv, EPS_POINTS, {"ref": ref_rows}, fixed_input)


def _nudd_op(m: int, d_min: int, eta: float, ref_rows) -> Op:
    grid = nudd_grid(m, eta)
    argv = [
        "bounds", "nudd", "--m", str(m), "--dmin", str(d_min), "--eta", _r(eta),
        "--eps-min", _r(grid[0]), "--eps-max", _r(grid[-1]),
        "--eps-points", str(EPS_POINTS),
    ]
    return Op("bounds-nudd", argv, EPS_POINTS, {"ref": ref_rows}, fixed_input=True)


def load_stored_reference(path: Path) -> dict:
    """Stored 60-digit reference rows of the preset cells (make_reference.py)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    qdd = {(c["n1"], c["n2"], tuple(c["eta"])): c["rows"] for c in doc["qdd"]}
    nudd = {(c["m"], c["d_min"], c["eta"]): c["rows"] for c in doc["nudd"]}
    return {"qdd": qdd, "nudd": nudd}


def random_qdd_cells(
    seed: int, round_no: int
) -> list[tuple[int, int, tuple[float, float, float]]]:
    """Seeded cells: N1, N2 in 1..34 and each eta component in 1e-4..1e2.

    Latin-hypercube draws keep the mix of cheap and expensive cells (the
    series length grows with eta) the same from seed to seed.  Each round
    multiplies every eta by its own factor within ``INPUT_JITTER`` of 1.
    """
    rng = np.random.default_rng([seed, 1])
    n = RANDOM_BOUND_CELLS
    n1 = np.floor(_latin(rng, n, 1.0, 35.0)).astype(int)
    n2 = np.floor(_latin(rng, n, 1.0, 35.0)).astype(int)
    logs = np.array([_latin(rng, n, -4.0, 2.0) for _ in range(3)])
    eta = _jitter(np.random.default_rng([seed, 1, round_no]), 10.0**logs)
    return [(int(n1[i]), int(n2[i]), tuple(float(e) for e in eta[:, i])) for i in range(n)]


def bounds_grid(seed: int, round_no: int, stored: dict | None) -> list[Op]:
    """40 preset cells then the seeded random cells.

    ``stored`` is the preset reference (None in a set-up probe, which checks
    nothing); random cells get reference rows from ``reference.py``.
    """
    ops = []
    for n1, n2, eta in preset_qdd_cells():
        ops.append(_qdd_op(n1, n2, eta, stored and stored["qdd"][(n1, n2, eta)], True))
    for m, d_min, eta in preset_nudd_cells():
        ops.append(_nudd_op(m, d_min, eta, stored and stored["nudd"][(m, d_min, eta)]))
    for n1, n2, eta in random_qdd_cells(seed, round_no):
        ref = None
        if stored is not None:
            ref = [
                [r["epsilon"], r["L_x"], r["L_y"], r["L_z"], r["D_bound"], r["D_leading"]]
                for r in reference.qdd_rows(n1, n2, eta, EPS_GRID)
            ]
        ops.append(_qdd_op(n1, n2, eta, ref, False))
    return ops


# ------------------------------------------------------------------ certify --


def certify(seed: int) -> list[Op]:
    """The fixed certification list; the seed has nothing to draw here.

    A claimed order d is tight for these sequences, so a witness at length
    d + 1 is expected exactly when nmax > d.
    """
    del seed
    ops = []
    for backend, n1, n2, nmax in CERTIFY_OPS:
        orders = dict(zip("xyz", reference.qdd_orders(n1, n2)))
        status = {ch: "found" if nmax > d else "not-checked" for ch, d in orders.items()}
        argv = [
            "verify", "orders", "--qdd", str(n1), str(n2), "--nmax", str(nmax),
            "--backend", backend,
        ]
        words = sum(4**k for k in range(1, nmax + 1))
        expect = {"backend": backend, "nmax": nmax, "orders": orders, "witness_status": status}
        ops.append(Op("verify-orders", argv, words, expect, fixed_input=True))
    return ops


# --------------------------------------------------------------- simulation --


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return 10.0 ** rng.uniform(lo, hi, size=size)


def _write_config(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def sim_small(seed: int, round_no: int, workdir: Path) -> list[Op]:
    """Seven 24-cell calls drawn like the bound-dominance acceptance suite.

    QDD: orders (1,1), (2,2), (1,4), (3,3); bath dim 2, 8, 32; anisotropic
    eta in 1e-2..1e1 (``verify bound``) or isotropic (``sweep``); eps in
    1e-3..1.  NUDD: orders (1,1,1,1) on two qubits, bath dim 2, 4, 8.
    """
    rng = np.random.default_rng([seed, 2])
    fresh = np.random.default_rng([seed, 2, round_no])
    n = SIM_SMALL_CELLS
    ops = []

    def master() -> int:
        return int(fresh.integers(0, 2**31 - n))

    def draw(lo: float, hi: float, size=None):
        return _jitter(fresh, _log_uniform(rng, lo, hi, size))

    cfg = {
        "kind": "qdd",
        "orders": [list(o) for o in QDD_ORDER_POOL],
        "bath_dim": [2, 8, 32],
        "eps": [float(draw(-3.0, 0.0))],
        "eta": [float(x) for x in draw(-2.0, 1.0, 2)],
        "seeds": 1,
        "master_seed": master(),
    }
    path = _write_config(workdir / "sweep-qdd.json", cfg)
    ops.append(Op("sweep", ["sweep", "--config", path], n, {"cells": n}))

    for (n1, n2), dim in zip(QDD_ORDER_POOL, (2, 8, 32, 8)):
        eta = draw(-2.0, 1.0, 3)
        argv = [
            "verify", "bound", "--qdd", str(n1), str(n2),
            "--eps", _r(draw(-3.0, 0.0)),
            "--eta-x", _r(eta[0]), "--eta-y", _r(eta[1]), "--eta-z", _r(eta[2]),
            "--bath-dim", str(dim), "--seeds", str(n), "--seed", str(master()),
        ]
        ops.append(Op("verify-bound", argv, n, {"cells": n}))

    cfg = {
        "kind": "nudd",
        "orders": [[1, 1, 1, 1]],
        "bath_dim": [2, 4, 8],
        "eps": [float(x) for x in draw(-3.0, 0.0, 2)],
        "eta": [float(x) for x in draw(-2.0, 1.0, 2)],
        "seeds": 2,
        "master_seed": master(),
    }
    path = _write_config(workdir / "sweep-nudd.json", cfg)
    ops.append(Op("sweep", ["sweep", "--config", path], n, {"cells": n}))

    argv = [
        "verify", "bound", "--nudd", "1,1,1,1", "--qubits", "2",
        "--eps", _r(draw(-3.0, 0.0)),
        "--eta", _r(draw(-2.0, 1.0)),
        "--bath-dim", "4", "--seeds", str(n), "--seed", str(master()),
    ]
    ops.append(Op("verify-bound", argv, n, {"cells": n}))
    return ops


def sim_large(seed: int, round_no: int, workdir: Path) -> list[Op]:
    """``simulate`` at total dimension 256: QDD bath 128, NUDD bath 64."""
    rng = np.random.default_rng([seed, 3])
    fresh = np.random.default_rng([seed, 3, round_no])
    ops = []
    specs = [("qdd", (2, 2), 128), ("qdd", (6, 6), 128), ("qdd", (10, 10), 128),
             ("nudd", (1, 1, 1, 1), 64)]
    for k, (kind, orders, dim) in enumerate(specs):
        if kind == "qdd":
            eta = _jitter(fresh, _log_uniform(rng, -2.0, 1.0, 3))
            norms = {"0": 1.0, "x": float(eta[0]), "y": float(eta[1]), "z": float(eta[2])}
        else:
            eta = float(_jitter(fresh, _log_uniform(rng, -2.0, 1.0)))
            norms = {"00": 1.0}
            for label in itertools.product("0xyz", repeat=2):
                lab = "".join(label)
                if lab != "00":
                    norms[lab] = eta * float(rng.uniform(0.2, 1.0))
        cfg = {
            "kind": kind,
            "orders": list(orders),
            "T": float(_jitter(fresh, _log_uniform(rng, -3.0, 0.0))),
            "bath": {"dim": dim, "seed": int(fresh.integers(0, 2**31)), "norms": norms},
        }
        path = _write_config(workdir / f"simulate-{k}.json", cfg)
        ops.append(Op("simulate", ["simulate", "--config", path], 1))
    return ops


def negative_control() -> Op:
    """``verify bound --loosen -1`` flips every bound negative: must fail."""
    argv = [
        "verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--eta", "1",
        "--seeds", "3", "--bath-dim", "4", "--loosen", "-1",
    ]
    return Op("verify-bound", argv, 3, {"cells": 3})


def make_part(part: str, seed: int, round_no: int, workdir: Path,
              stored: dict | None) -> list[Op]:
    """One part's ops for round ``round_no``; config files go to ``workdir``."""
    if part == "bounds-grid":
        return bounds_grid(seed, round_no, stored)
    if part == "certify":
        return certify(seed)
    if part == "sim-small":
        return sim_small(seed, round_no, workdir)
    if part == "sim-large":
        return sim_large(seed, round_no, workdir)
    raise ValueError(f"unknown part {part!r}")


def make_round(workload: str, seed: int, round_no: int, workdir: Path,
               stored: dict | None) -> list[Op]:
    """Round ``round_no`` of a run; config files go to ``workdir/round<n>``."""
    workdir = workdir / f"round{round_no}"
    out = []
    for part in WORKLOADS[workload]:
        for op in make_part(part, seed, round_no, workdir, stored):
            op.part = part
            out.append(op)
    return out
