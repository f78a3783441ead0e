"""End-to-end acceptance checks.

One test per shipped guarantee, numbered so the ``pytest -v`` report reads as
a pass/fail line per item. Each test rechecks its claim from scratch against
an independent reference (high-precision finite differences, a re-derived
order table, an ODE integrator, the exact simulator) and asserts its own
runtime budget.
"""

import functools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ddbound.cli import MARGIN_FLOOR
from ddbound.cli import main as cli_main
from ddbound.dyson import verify_orders
from ddbound.nudd_bounds import (
    gamma_factor,
    nudd_distance_bound,
    nudd_eps_window,
    nudd_sweep_cell,
    preset_nudd_cells,
)
from ddbound.qdd_bounds import (
    EtaVector,
    _case_parities,
    decoupling_orders,
    default_eps_grid,
    distance_bound,
    preset_cells,
    sweep_cell,
)
from ddbound.series import cell_ok
from ddbound.simulator import (
    BathSpec,
    ExperimentConfig,
    build_model,
    fit_scaling,
    pauli_labels,
    run_experiment,
)

from closed_forms import (
    bounding_function,
    g_poly,
    s_error_sum,
    s_identity_sum,
    scaled_bounding_function,
)


def test_criterion_01_partition_identity():
    """Eight sector functions sum to exp(eps * (1 + eta_x + eta_y + eta_z))."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    literal_checked = 0
    for _ in range(100):
        eps = float(rng.uniform(0.0, 5.0))
        eta = EtaVector(*(float(v) for v in rng.uniform(0.0, 100.0, size=3)))
        arg = eps * (1.0 + eta.total)
        # rescaled by exp(-arg) the identity reads "sum = 1" at any magnitude
        scaled = sum(scaled_bounding_function(j, eps, eta) for j in range(8))
        worst = max(worst, abs(scaled - 1.0))
        if arg < 700.0:  # direct form representable in doubles
            total = sum(bounding_function(j, eps, eta) for j in range(8))
            expected = math.exp(arg)
            worst = max(worst, abs(total - expected) / expected)
            literal_checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert literal_checked > 10
    assert elapsed < 1.0
    print(
        f"criterion 01 PASS: partition identity, 100 draws "
        f"({literal_checked} also unscaled), max rel err {worst:.2e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_02_taylor_coefficients():
    """g_l coefficients match finite-difference Taylor expansion of each sector."""
    t0 = time.perf_counter()
    anchor = EtaVector(0.25, 0.5, 0.125)
    rng = np.random.default_rng(7)
    etas = [anchor] + [
        EtaVector(*(float(v) for v in rng.uniform(0.05, 2.0, size=3)))
        for _ in range(3)
    ]
    worst = 0.0
    with mp.workdps(50):
        for eta in etas:
            for j in range(1, 7):
                p = _case_parities(j)
                comps = eta.as_tuple()

                def sector(e, p=p, comps=comps):
                    out = mp.exp(e)
                    for pa, ea in zip(p, comps):
                        out *= mp.sinh(ea * e) if pa else mp.cosh(ea * e)
                    return out

                coeffs = mp.taylor(sector, 0, 6)
                for l in range(7):
                    ref = float(coeffs[l])
                    got = g_poly(j, l, eta)
                    if abs(ref) < 1e-20:
                        assert abs(got) < 1e-12
                    else:
                        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-6
    assert g_poly(4, 1, anchor) == anchor.eta_x  # bitwise for dyadic eta
    assert g_poly(1, 1, anchor) == anchor.eta_z
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 02 PASS: 4 eta draws x 6 sectors x 7 orders vs FD Taylor, "
        f"max rel err {worst:.2e}, anchors exact, {elapsed:.2f}s"
    )


def _orders_table(n1, n2, mode):
    # independent transcription of the two-layer suppression-order table
    d_x = n1
    if n1 % 2 == 0:
        d_y = max(n1, n2) if n2 % 2 == 0 else max(n1 + 1, n2)
        d_z = n2
    else:
        d_y = n1 if n2 % 2 == 0 else n1 + 1
        if mode == "numeric-footnote":
            d_z = min(2 * n1 + 1, n2)
        else:
            d_z = min(n1 + 1, n2)
    return d_x, d_y, d_z


def test_criterion_03_order_table():
    t0 = time.perf_counter()
    count = 0
    for mode in ("analytic", "numeric-footnote"):
        for n1 in range(11):
            for n2 in range(11):
                got = decoupling_orders(n1, n2, mode).as_tuple()
                assert got == _orders_table(n1, n2, mode), (n1, n2, mode)
                count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 03 PASS: decoupling order table, {count} rows across both "
        f"modes, {elapsed:.2f}s"
    )


def test_criterion_04_word_certification():
    t0 = time.perf_counter()
    summary = []
    for backend, values in (("rational", (1, 2)), ("mp", (3, 4))):
        for n1 in values:
            for n2 in values:
                cert = verify_orders(n1, n2, n_max=4, backend=backend)
                assert cert.certified, (n1, n2)
                assert not cert.violations
                claimed = {
                    "x": cert.orders.d_x,
                    "y": cert.orders.d_y,
                    "z": cert.orders.d_z,
                }
                seen = set()
                for row in cert.rows:
                    if not row["expected_zero"]:
                        continue
                    assert row["max_abs"] == 0.0, row  # proved zero on both backends
                    seen.add((row["channel"], row["n"]))
                for ch, d in claimed.items():
                    for n in range(1, min(4, d) + 1):
                        assert (ch, n) in seen, (n1, n2, ch, n)
                summary.append(f"({n1},{n2})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 04 PASS: word integrals vanish through min(4, d) for "
        f"{' '.join(summary)}, {elapsed:.2f}s"
    )


def test_criterion_05_channel_curves():
    t0 = time.perf_counter()
    grid = np.asarray(default_eps_grid())
    window = grid[grid <= 1e-3 * (1 + 1e-12)]
    assert len(window) == 11
    cells = preset_cells("fig2")
    for n1, n2, eta in cells:
        columns, converged = sweep_cell(n1, n2, eta, grid)
        assert cell_ok(columns, converged).all(), (n1, eta.eta_x)
        for key in ("L_x", "L_y", "L_z", "D_bound"):
            vals = columns[key]
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) > 0.0), (n1, key)  # monotone in eps
            slope = np.polyfit(np.log(window), np.log(vals[: len(window)]), 1)[0]
            assert abs(slope - (n1 + 1)) <= 0.1, (n1, eta.eta_x, key, slope)
    for eta_val in (1e-4, 1e-2, 1.0, 1e2):
        eps_star = 1e-3 * min(1.0, 1.0 / eta_val)
        eta = EtaVector.isotropic(eta_val)
        by_n = {n: distance_bound(n, n, eps_star, eta) for n in (2, 6, 16, 34)}
        for key in ("L_x", "L_y", "L_z", "D_bound"):
            assert by_n[34][key] < by_n[16][key] < by_n[6][key] < by_n[2][key]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 05 PASS: 16 cells, channel and distance curves monotone, "
        f"ordered at eps*, slopes within 0.1 of N+1, {elapsed:.2f}s"
    )


def test_criterion_06_nudd_curves():
    t0 = time.perf_counter()
    for m, d_min, eta in preset_nudd_cells("fig5"):
        window = np.asarray(nudd_eps_window(eta, m))
        columns, converged = nudd_sweep_cell(m, d_min, eta, window)
        assert cell_ok(columns, converged).all(), (d_min, eta)
        for key in ("Delta", "D_bound"):
            vals = columns[key]
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals) > 0.0), (d_min, eta, key)
        # slope fitted where eps * (1 + gamma * eta) spans [1e-4, 1e-3]
        fit = window[:11]
        deltas = columns["Delta"][:11]
        slope = np.polyfit(np.log(fit), np.log(deltas), 1)[0]
        assert abs(slope - (d_min + 1)) <= 0.1, (d_min, eta, slope)
    for eta in (1e-4, 1e-2, 1.0, 1e2):
        scale = 1.0 + gamma_factor(10) * eta
        eps_star = 1e-3 * min(1.0, 1.0 / eta) / scale
        by_d = {d: nudd_distance_bound(d, eps_star, eta, 10) for d in (5, 10, 20, 40)}
        for key in ("Delta", "D_bound"):
            assert by_d[40][key] < by_d[20][key] < by_d[10][key] < by_d[5][key]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 06 PASS: 16 nested cells, tail curves monotone and "
        f"ordered, slopes within 0.1 of d_min+1, {elapsed:.2f}s"
    )


def test_criterion_07_ode_cross_check():
    """The two-component growth ODE reproduces both closed-form sums."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        gamma = gamma_factor(m)
        j0 = float(rng.uniform(0.2, 2.0))
        j1 = float(rng.uniform(0.05, 1.0))
        T = float(rng.uniform(0.5, 5.0)) / (j0 + gamma * j1)
        mat = np.array([[j0, gamma * j1], [j1, j0 + (gamma - 1) * j1]])
        sol = solve_ivp(
            lambda t, y: mat @ y,
            (0.0, T),
            [1.0, 0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        s0_num = sol.y[0, -1]
        sk_num = gamma * sol.y[1, -1]  # error sum counts gamma equal words
        s0 = s_identity_sum(T, j0, j1, m)
        sk = s_error_sum(T, j0, j1, m)
        worst = max(worst, abs(s0_num - s0) / s0, abs(sk_num - sk) / sk)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(
        f"criterion 07 PASS: 20 random ODE integrations vs closed forms, "
        f"max rel err {worst:.2e}, {elapsed:.2f}s"
    )


@functools.lru_cache(maxsize=1)
def _dominance_suite():
    """200 randomized QDD runs plus 40 nested runs, shared by items 8 and 9."""
    rng = np.random.default_rng(818)
    orders_pool = ((1, 1), (2, 2), (1, 4), (3, 3))
    dims = (2, 8, 32)
    results = []
    for k in range(200):
        eta = 10.0 ** rng.uniform(-2.0, 1.0, size=3)
        bath = BathSpec(
            dim=dims[k % 3],
            seed=int(rng.integers(0, 2**31)),
            norms={
                "0": 1.0,
                "x": float(eta[0]),
                "y": float(eta[1]),
                "z": float(eta[2]),
            },
        )
        cfg = ExperimentConfig(
            kind="qdd",
            orders=orders_pool[k % 4],
            bath=bath,
            T=float(10.0 ** rng.uniform(-3.0, 0.0)),
        )
        results.append(run_experiment(cfg))
    error_labels = [lab for lab in pauli_labels(2) if lab != "00"]
    for k in range(40):
        eta = float(10.0 ** rng.uniform(-2.0, 1.0))
        norms = {"00": 1.0}
        for lab in error_labels:
            norms[lab] = eta * float(rng.uniform(0.2, 1.0))
        bath = BathSpec(
            dim=int(rng.choice((2, 4, 8))),
            seed=int(rng.integers(0, 2**31)),
            norms=norms,
        )
        cfg = ExperimentConfig(
            kind="nudd",
            orders=(1, 1, 1, 1),
            bath=bath,
            T=float(10.0 ** rng.uniform(-3.0, 0.0)),
        )
        results.append(run_experiment(cfg))
    return results


def test_criterion_08_bound_dominance():
    t0 = time.perf_counter()
    results = _dominance_suite()
    assert len(results) == 240
    worst_margin = min(r.margin for r in results)
    worst_channel = min(min(r.channel_margins.values()) for r in results)
    assert worst_margin >= MARGIN_FLOOR
    assert worst_channel >= MARGIN_FLOOR
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"criterion 08 PASS: 240 randomized runs, worst distance margin "
        f"{worst_margin:.3e}, worst channel margin {worst_channel:.3e}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_09_unitarity_suite():
    results = _dominance_suite()
    worst = 0.0
    for r in results:
        worst = max(worst, r.unitarity_residual)
        if r.cross_residuals:
            worst = max(worst, max(r.cross_residuals.values()))
    assert worst <= 1e-10
    print(
        f"criterion 09 PASS: completeness and cross residuals on all 240 "
        f"propagators, worst {worst:.3e}"
    )


def test_criterion_10_scaling_and_closed_forms():
    t0 = time.perf_counter()
    bath = BathSpec(dim=8, seed=97, norms={"0": 1.0, "x": 0.4, "y": 0.4, "z": 0.4})
    fit22 = fit_scaling(2, 2, bath)
    for ch in ("x", "y", "z"):
        assert fit22.slopes[ch] is not None and fit22.slopes[ch] >= 2.7, ch
    # z suppression for (1, 4) is strong enough that the default window sits
    # at the numerical floor; fit where the channel norm is resolvable
    fit14 = fit_scaling(1, 4, bath, eps_grid=np.geomspace(0.02, 0.2, 8))
    assert fit14.slopes["z"] is not None and fit14.slopes["z"] >= 2.7

    scalar = BathSpec(dim=1, seed=5, norms={"0": 1.0, "z": 0.8})
    bz = float(build_model(scalar, 1).couplings["z"][0, 0].real)
    for T in (0.3, 1.0, 2.5):
        res = run_experiment(
            ExperimentConfig(
                kind="qdd", orders=(0, 0), bath=scalar, T=T, initial_state="plus"
            )
        )
        assert res.distance_actual == pytest.approx(abs(math.sin(bz * T)), abs=1e-12)
    for orders in ((0, 1), (0, 3)):
        res = run_experiment(
            ExperimentConfig(
                kind="qdd", orders=orders, bath=scalar, T=0.9, initial_state="plus"
            )
        )
        assert res.distance_actual <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 10 PASS: slopes {fit22.slopes} and z {fit14.slopes['z']:.2f} "
        f">= 2.7, scalar-bath closed forms reproduced, {elapsed:.1f}s"
    )


def test_criterion_11_loosen_negative_control():
    base = [
        "verify", "bound", "--qdd", "2", "2", "--eps", "0.1", "--eta", "1",
        "--seeds", "3", "--bath-dim", "4",
    ]
    assert cli_main(base) == 0  # positive control
    assert cli_main(base + ["--loosen", "-1"]) == 1
    print(
        "criterion 11 PASS: --loosen -1 flips the verifier to a detected "
        "violation (exit 1)"
    )
