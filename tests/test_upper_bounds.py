"""Every reported bound is an upper bound in floating point, and a tight one.

The CLI's CSV values are compared with the same series summed in 120-digit
arithmetic, at the exact double inputs the CLI used: every ``L_*``,
``Delta``, ``D_bound`` and ``D_leading`` must be >= its exact value and
within ``TIGHT`` of it.  The grids are fig2-, fig3- and fig4-type QDD cells
(eta down to 1e-4, N from 1 to 34, nine eps points from 1e-4 to 1) and the
fig5 NUDD cells, where signed weights cancel most.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import pytest

from ddbound.cli import main as cli_main
from ddbound.qdd_bounds import CASE_OF_CHANNEL, _case_parities

TIGHT = 1e-9
DPS = 120
SIGNS = tuple(itertools.product((1, -1), repeat=3))


def csv_rows(argv, capsys):
    assert cli_main(argv) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def exp_tails(rate, orders):
    """sum_{n > d} rate^n / n! for each d in ``orders``, and the n = d + 1 terms."""
    d_max = max(orders)
    terms = [mp.mpf(1)]
    past = mp.mpf(0)  # the tail past d_max summed so far
    small = mp.mpf(10) ** -DPS
    while rate != 0:
        n = len(terms)
        terms.append(terms[-1] * rate / n)
        if n > d_max:
            past += terms[-1]
            if n > 2 * abs(rate) and abs(terms[-1]) < small * abs(past):
                break
    terms += [mp.mpf(0)] * (d_max + 2)
    tails = {d: mp.fsum(terms[d + 1 :]) for d in orders}
    return tails, {d: terms[d + 1] for d in orders}


def qdd_exact(row):
    """Exact L_x, L_y, L_z, D_bound and D_leading of one ``bounds qdd`` row."""
    eps = mp.mpf(row["epsilon"])
    eta = [mp.mpf(row[f"eta_{a}"]) for a in "xyz"]
    orders = {ch: int(row[f"d_{ch}"]) for ch in "xyz"}
    rates = [eps * (1 + s[0] * eta[0] + s[1] * eta[1] + s[2] * eta[2]) for s in SIGNS]
    per_rate = [exp_tails(r, set(orders.values())) for r in rates]
    out, leading = {}, 0
    for ch, sectors in CASE_OF_CHANNEL.items():
        d = orders[ch]
        out[f"L_{ch}"] = 0
        for j in sectors:
            par = _case_parities(j)
            for s, (tails, firsts) in zip(SIGNS, per_rate):
                w = mp.mpf(1) / 8
                for p, sign in zip(par, s):
                    w *= sign if p else 1
                out[f"L_{ch}"] += w * tails[d]
                leading += w * firsts[d]
    total = out["L_x"] + out["L_y"] + out["L_z"]
    squares = out["L_x"] ** 2 + out["L_y"] ** 2 + out["L_z"] ** 2
    out["D_bound"] = total + (total**2 + squares) / 2
    out["D_leading"] = leading
    return out


def nudd_exact(row):
    """Exact Delta, D_bound and D_leading of one ``bounds nudd`` row."""
    eps, eta, d = mp.mpf(row["epsilon"]), mp.mpf(row["eta"]), int(row["d_min"])
    g = mp.mpf(4) ** int(row["m"]) - 1
    c = g / (g + 1)
    (t1, f1), (t2, f2) = (exp_tails(eps * (1 + g * eta), {d}), exp_tails(eps * (1 - eta), {d}))
    delta = c * (t1[d] - t2[d])
    return {"Delta": delta, "D_bound": delta**2 + delta, "D_leading": c * (f1[d] - f2[d])}


def assert_upper(rows, exact):
    worst = 0.0
    for row in rows:
        with mp.workdps(DPS):
            want = exact(row)
            for key, value in want.items():
                got = mp.mpf(row[key])
                assert got >= value, (key, row)
                if value > 0:
                    worst = max(worst, float((got - value) / value))
    assert worst < TIGHT


EPS = ["--eps-min", "1e-4", "--eps-max", "1", "--eps-points", "9"]
QDD_CELLS = [
    (n, n, (e, e, e)) for e in (1e-4, 1e-2, 1.0, 1e2) for n in (1, 2, 6, 16, 34)
] + [
    (n1, n2, (e, e, 1e-2))
    for e in (1e-4, 1e-2, 1.0, 1e2)
    for n1, n2 in ((2, 10), (3, 9), (10, 10), (19, 9), (34, 10))
]
# Anisotropic cells: one sinh factor at small eta beside a large cosh or
# sinh factor, as in the benchmark's random cells.
MIXED_CELLS = [(3, 5, (1e-4, 1e2, 1e-2)), (7, 2, (1e2, 1e-4, 1e-3)), (1, 1, (0.3, 1e-4, 3.0))]


@pytest.mark.parametrize("eta", (1e-4, 1e-2, 1.0, 1e2, "mixed"))
def test_qdd_rows_are_tight_upper_bounds(eta, capsys):
    cells = MIXED_CELLS if eta == "mixed" else [c for c in QDD_CELLS if c[2][0] == eta]
    for n1, n2, etas in cells:
        argv = ["bounds", "qdd", "--n1", str(n1), "--n2", str(n2), *EPS]
        argv += [f"--eta-{a}={v!r}" for a, v in zip("xyz", etas)]
        assert_upper(csv_rows(argv, capsys), qdd_exact)


def test_nudd_fig5_rows_are_tight_upper_bounds(capsys):
    assert_upper(csv_rows(["bounds", "nudd", "--fig5", "--eps-points", "9"], capsys), nudd_exact)


@pytest.mark.parametrize("m, d_min", [(1, 1), (1, 10), (2, 3)])
def test_nudd_small_eta_rows_are_tight_upper_bounds(m, d_min, capsys):
    # at eta = 1e-7 the two exponentials of S_K nearly cancel
    argv = ["bounds", "nudd", "--m", str(m), "--dmin", str(d_min), "--eta", "1e-7", *EPS]
    assert_upper(csv_rows(argv, capsys), nudd_exact)
