"""Nested multi-qubit bound tests.

The two weight sums obey a closed linear system: the identity-word weight
feeds the error weights at rate J1 per channel and vice versa, which is what
the small ODE cross-check below integrates directly.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ddbound.nudd_bounds import (
    NUDD_SWEEP_COLUMNS,
    d_min_for_orders,
    gamma_factor,
    nudd_delta,
    nudd_distance_bound,
    nudd_eps_window,
    nudd_sweep_row,
    nudd_sweep_rows,
    preset_nudd_cells,
)
from ddbound.qdd_bounds import default_eps_grid
from ddbound.series import NonConvergenceError

from closed_forms import nudd_g, s_error_sum, s_identity_sum


def test_gamma_factor_values():
    assert gamma_factor(1) == 3
    assert gamma_factor(2) == 15
    assert gamma_factor(10) == 4**10 - 1
    assert isinstance(gamma_factor(31), int)
    with pytest.raises(ValueError):
        gamma_factor(0)
    with pytest.raises(ValueError):
        gamma_factor(32)


def test_d_min_uses_requested_orders():
    # the appended frame-closing pulse does not raise the suppression order,
    # so the minimum is over the requested orders, odd ones included
    assert d_min_for_orders((1, 1)) == 1
    assert d_min_for_orders((1, 1, 1, 1)) == 1
    assert d_min_for_orders((4, 2, 6, 2)) == 2
    assert d_min_for_orders((3, 5)) == 3
    with pytest.raises(ValueError):
        d_min_for_orders(())
    with pytest.raises(ValueError):
        d_min_for_orders((1, 2, 3))


def test_identity_error_sum_partition():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        j0 = float(rng.uniform(0.1, 2.0))
        j1 = float(rng.uniform(0.0, 1.0))
        T = float(rng.uniform(0.0, 1.0))
        g = gamma_factor(m)
        total = s_identity_sum(T, j0, j1, m) + s_error_sum(T, j0, j1, m)
        assert total == pytest.approx(math.exp((j0 + g * j1) * T), rel=1e-13)


def test_error_sum_boundary_values():
    assert s_error_sum(0.0, 1.0, 0.5, 2) == 0.0
    assert s_error_sum(0.7, 1.0, 0.0, 2) == 0.0
    assert s_identity_sum(0.0, 1.0, 0.5, 2) == 1.0


def test_taylor_coeffs_reproduce_error_sum():
    j0, j1, m, T = 0.8, 0.3, 2, 0.2
    acc = sum(nudd_g(k, j1 / j0, m) * (j0 * T) ** k for k in range(40))
    assert acc == pytest.approx(s_error_sum(T, j0, j1, m), rel=1e-12)


def test_taylor_coeff_anchors():
    g = gamma_factor(3)
    assert nudd_g(0, 0.5, 3) == 0.0  # J0 = 1, J1 = 0.5
    assert nudd_g(1, 0.5, 3) == pytest.approx(g * 0.5)
    j0, j1 = 1.3, 0.4
    for k in range(12):
        assert nudd_g(k, j1 / j0, 3) >= 0.0


@settings(max_examples=300, deadline=None)
@given(l=st.integers(0, 80), eta=st.floats(0.0, 1e3), m=st.integers(1, 5))
@example(l=67, eta=0.0, m=1)  # a signed dot product once gave -1.7e-111 here
def test_nudd_g_nonnegative(l, eta, m):
    """g_l >= 0 in floating point, finite wherever (1 + gamma eta)^l / l! is,
    and exactly 0 at eta = 0."""
    g = nudd_g(l, eta, m)
    assert g >= 0.0
    if mp.mpf(1 + gamma_factor(m) * eta) ** l / mp.factorial(l) < 1e300:
        assert math.isfinite(g)
    if eta == 0.0:
        assert g == 0.0


@settings(max_examples=50, deadline=None)
@given(
    eta=st.one_of(st.floats(max_value=-5e-324), st.sampled_from([math.nan, math.inf])),
    l=st.integers(0, 80),
)
def test_nudd_g_rejects_eta_outside_domain(eta, l):
    with pytest.raises(ValueError, match="eta"):
        nudd_g(l, eta, 1)


def test_delta_completes_partial_sum():
    m, eta, eps = 2, 0.6, 0.2
    for d in (0, 1, 3):
        head = sum(nudd_g(l, eta, m) * eps**l for l in range(d + 1))
        total = nudd_delta(d, eps, eta, m)[0] + head
        assert total == pytest.approx(s_error_sum(eps, 1.0, eta, m), rel=1e-12)


def test_delta_zero_cases():
    assert nudd_delta(3, 0.0, 0.5, 2)[0] == 0.0
    assert nudd_delta(3, 0.5, 0.0, 2)[0] == 0.0
    # at eps = 0 every rate is 0, also where 1 + gamma * eta overflows
    assert nudd_delta(3, 0.0, 1e300, 31) == (0.0, 0.0)
    with pytest.raises(ValueError, match="rates and weights must be finite"):
        nudd_delta(3, 1e-300, 1e300, 31)


def test_delta_validation():
    with pytest.raises(ValueError):
        nudd_delta(-1, 0.1, 0.1, 2)
    for eps, eta in ((-0.1, 0.1), (math.nan, 0.1), (0.1, math.nan)):
        with pytest.raises(ValueError):
            nudd_delta(1, eps, eta, 2)


@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("m", [-5, 0, 32, 99])
def test_qubit_count_checked_at_every_entry(m, eta):
    # at eta = 0 the bound needs no tail pass, and m is still checked
    calls = (
        lambda: nudd_distance_bound(1, 0.1, eta, m),
        lambda: nudd_delta(1, 0.1, eta, m),
        lambda: nudd_sweep_rows(m, 1, eta, [0.1]),
        lambda: nudd_sweep_row(m, 1, 0.1, eta),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"qubit count m must be in 1\.\.31"):
            call()


@pytest.mark.parametrize("eta", [math.inf, math.nan])
def test_nonfinite_eta_is_named(eta):
    for call in (nudd_delta, nudd_distance_bound):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            call(2, 0.1, eta, 2)


def test_distance_bound_form():
    rep = nudd_distance_bound(2, 0.1, 0.5, 2)
    assert rep.distance_bound == pytest.approx(rep.delta**2 + rep.delta, rel=1e-15)
    assert rep.leading_term <= rep.delta * (1 + 1e-12)


def test_leading_term_ratio():
    rep = nudd_distance_bound(3, 1e-4, 0.5, 2)
    assert rep.delta / rep.leading_term == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize(
    "d_min, eps, eta, m",
    [
        (2, 0.1, 0.5, 2),
        (5, 1e-3, 1e-4, 10),
        (40, 0.5 / (1 + (4**10 - 1) * 100.0), 100.0, 10),
        (200, 1.0, 1.0, 1),  # (d_min+1)! beyond double range
    ],
)
def test_leading_term_against_mpmath(d_min, eps, eta, m):
    """D_leading = g_{d_min+1} eps^(d_min+1) in 60-digit arithmetic."""
    g, l = 4**m - 1, d_min + 1
    with mp.workdps(60):
        a = mp.mpf(eps) * (1 + g * mp.mpf(eta))
        b = mp.mpf(eps) * (1 - mp.mpf(eta))
        expect = float(mp.mpf(g) / (g + 1) * (a**l - b**l) / mp.factorial(l))
    rep = nudd_distance_bound(d_min, eps, eta, m)
    assert rep.leading_term == pytest.approx(expect, rel=1e-12)


def test_ode_cross_check():
    """Integrate the coupled weight-sum system and compare to closed forms.

    The state is (S_0, S_1): the identity-word sum and the per-channel error
    sum; the total error weight is gamma * S_1.
    """
    rng = np.random.default_rng(19)
    for _ in range(3):
        m = int(rng.integers(1, 5))
        g = gamma_factor(m)
        j0 = float(rng.uniform(0.2, 1.5))
        j1 = float(rng.uniform(0.0, 1.0))
        T = float(rng.uniform(0.1, 5.0 / (j0 + g * j1)))
        mat = np.array([[j0, g * j1], [j1, j0 + (g - 1) * j1]])
        sol = solve_ivp(
            lambda t, y: mat @ y,
            (0.0, T),
            np.array([1.0, 0.0]),
            rtol=1e-12,
            atol=1e-14,
        )
        s0_num, s1_num = sol.y[:, -1]
        assert s0_num == pytest.approx(s_identity_sum(T, j0, j1, m), rel=1e-9)
        assert g * s1_num == pytest.approx(
            s_error_sum(T, j0, j1, m), rel=1e-9, abs=1e-12
        )


def test_eps_window_is_scaled_grid():
    eta, m = 1e-2, 10
    scale = 1.0 + gamma_factor(m) * eta
    base = default_eps_grid(1e-4, 1.0, 41)
    win = nudd_eps_window(eta, m)
    assert len(win) == 41
    for b, w in zip(base, win):
        assert w == pytest.approx(b / scale, rel=1e-15)


def test_preset_cells_fig5():
    cells = preset_nudd_cells("fig5")
    assert len(cells) == 16
    assert all(m == 10 for m, _, _ in cells)
    assert {d for _, d, _ in cells} == {5, 10, 20, 40}
    with pytest.raises(ValueError):
        preset_nudd_cells("fig2")


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 31),
    d_min=st.integers(0, 300),
    eta=st.one_of(st.just(0.0), st.floats(1e-6, 1e4)),
    grid=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e3)), max_size=8),
)
def test_sweep_rows_are_one_point_rows(m, d_min, eta, grid):
    """Each row of a cell is the one-point row at its eps, bit for bit, and a
    row is None exactly where the one-point view raises."""
    for eps, row in zip(grid, nudd_sweep_rows(m, d_min, eta, grid), strict=True):
        try:
            one = nudd_sweep_row(m, d_min, eps, eta)
        except NonConvergenceError:
            assert row is None
        else:
            assert repr(row) == repr(one)


def test_sweep_row_values():
    row = nudd_sweep_row(2, 2, 0.05, 0.7)
    assert tuple(row) == NUDD_SWEEP_COLUMNS
    rep = nudd_distance_bound(2, 0.05, 0.7, 2)
    assert row["Delta"] == rep.delta
    assert row["D_bound"] == rep.distance_bound


def test_overflow_regime_raises():
    with pytest.raises(NonConvergenceError):
        nudd_delta(5, 1.0, 100.0, 10)
