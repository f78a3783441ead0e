"""Regenerate ``data/preset_reference.json``: the preset cells' bound curves.

Evaluated in 60-digit mpmath straight from the closed forms, independently
of ``ddbound`` and of the float evaluator in ``reference.py``:

    g_n^(j) = (1 / (8 n!)) sum_s [prod_a s_a^p_a] (1 + s.eta)^n

for QDD sector j, and ``c ((1 + gamma eta)^n - (1 - eta)^n) / n!`` for NUDD.
The sign cancellation in the QDD sum costs at most ~12 digits at eta = 1e-4,
which 60 digits absorb.  Tails are summed term by term until the terms drop
below 1e-30 of the partial sum.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import mpmath as mp

import reference
import workloads

OUT = Path(__file__).resolve().parent / "data" / "preset_reference.json"
_SIGNS = tuple(itertools.product((1, -1), repeat=3))


def _tail(coeff, d: int, eps, rate) -> tuple:
    """(sum_{n>d} coeff(n) eps^n, coeff(d+1) eps^(d+1))."""
    lead = coeff(d + 1) * eps ** (d + 1)
    total = mp.mpf(0)
    n = d + 1
    while True:
        term = coeff(n) * eps**n
        total += term
        if n > 2 * rate and abs(term) <= mp.mpf("1e-30") * abs(total):
            return total, lead
        n += 1


def qdd_cell(n1: int, n2: int, eta) -> list[list[float]]:
    e = [mp.mpf(x) for x in eta]
    orders = dict(zip("xyz", reference.qdd_orders(n1, n2)))
    cache: dict[tuple[int, int], mp.mpf] = {}

    def g(j: int, n: int):
        key = (j, n)
        if key not in cache:
            p = reference.parities(j)
            acc = mp.mpf(0)
            for s in _SIGNS:
                sign = (s[0] if p[0] else 1) * (s[1] if p[1] else 1) * (s[2] if p[2] else 1)
                acc += sign * (1 + s[0] * e[0] + s[1] * e[1] + s[2] * e[2]) ** n
            cache[key] = acc / (8 * mp.factorial(n))
        return cache[key]

    rows = []
    for x in workloads.EPS_GRID:
        eps = mp.mpf(x)
        rate = eps * (1 + sum(e))
        L, lead = {}, mp.mpf(0)
        for ch, sectors in reference.CASE_OF_CHANNEL.items():
            L[ch] = mp.mpf(0)
            for j in sectors:
                t, l0 = _tail(lambda n, j=j: g(j, n), orders[ch], eps, rate)
                L[ch] += t
                lead += l0
        lx, ly, lz = L["x"], L["y"], L["z"]
        d = lx + ly + lz + lx**2 + ly**2 + lz**2 + lx * ly + ly * lz + lx * lz
        rows.append([x] + [float(v) for v in (lx, ly, lz, d, lead)])
    return rows


def nudd_cell(m: int, d_min: int, eta: float) -> list[list[float]]:
    gamma = 4**m - 1
    c = mp.mpf(gamma) / (gamma + 1)
    e = mp.mpf(eta)

    def coeff(n: int):
        return c * ((1 + gamma * e) ** n - (1 - e) ** n) / mp.factorial(n)

    rows = []
    for x in workloads.nudd_grid(m, eta):
        eps = mp.mpf(x)
        delta, lead = _tail(coeff, d_min, eps, eps * (1 + gamma * e))
        rows.append([x] + [float(v) for v in (delta, delta**2 + delta, lead)])
    return rows


def main() -> None:
    mp.mp.dps = 60
    doc = {
        "generator": "perfbench/make_reference.py (mpmath, 60 digits)",
        "qdd_columns": ["epsilon", "L_x", "L_y", "L_z", "D_bound", "D_leading"],
        "nudd_columns": ["epsilon", "Delta", "D_bound", "D_leading"],
        "qdd": [
            {"n1": n1, "n2": n2, "eta": list(eta), "rows": qdd_cell(n1, n2, eta)}
            for n1, n2, eta in workloads.preset_qdd_cells()
        ],
        "nudd": [
            {"m": m, "d_min": d, "eta": eta, "rows": nudd_cell(m, d, eta)}
            for m, d, eta in workloads.preset_nudd_cells()
        ],
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
