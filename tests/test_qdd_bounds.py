"""Two-level bound machinery: sectors, polynomials, tails, and sweeps.

Independent references used here: the sector functions are recomputed from
their sinh/cosh product definition, the polynomial coefficients from the
eight-term signed sum, and the suppression-order table is transcribed afresh
rather than imported.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddbound.qdd_bounds import (
    CASE_OF_CHANNEL,
    QDD_SWEEP_COLUMNS,
    EtaVector,
    _case_parities,
    decoupling_orders,
    default_eps_grid,
    delta_tail,
    distance_bound,
    preset_cells,
    sweep_row,
    sweep_rows,
)
from ddbound.series import NonConvergenceError

from closed_forms import bounding_function, g_poly, scaled_bounding_function


def _reference_sector(j, eps, eta):
    """S_j recomputed directly from its definition."""
    out = math.exp(eps)
    for parity, e in zip(_case_parities(j), eta.as_tuple()):
        out *= math.sinh(e * eps) if parity else math.cosh(e * eps)
    return out


def test_case_parities_roundtrip():
    seen = set()
    for j in range(8):
        p = _case_parities(j)
        assert p == ((j >> 2) & 1, (j >> 1) & 1, j & 1)
        seen.add(p)
    assert len(seen) == 8


def test_channel_sector_map():
    assert CASE_OF_CHANNEL == {"x": (3, 4), "y": (2, 5), "z": (1, 6)}
    # the two sectors of a channel carry complementary sinh patterns:
    # one has a single sinh on the channel axis, the other sinh on both others
    for ch, (a, b) in CASE_OF_CHANNEL.items():
        pa, pb = _case_parities(a), _case_parities(b)
        assert sum(pa) + sum(pb) == 3
        axis = "xyz".index(ch)
        assert pa[axis] != pb[axis]


def test_bounding_function_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(50):
        eps = float(rng.uniform(0.01, 2.0))
        eta = EtaVector(*rng.uniform(0.0, 3.0, size=3))
        for j in range(8):
            assert bounding_function(j, eps, eta) == pytest.approx(
                _reference_sector(j, eps, eta), rel=1e-13
            )


def test_partition_identity_small():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eps = float(rng.uniform(0.0, 2.0))
        eta = EtaVector(*rng.uniform(0.0, 5.0, size=3))
        total = math.fsum(bounding_function(j, eps, eta) for j in range(8))
        assert total == pytest.approx(math.exp(eps * (1.0 + eta.total)), rel=1e-12)


def test_scaled_partition_sums_to_one():
    rng = np.random.default_rng(37)
    for _ in range(50):
        eps = float(rng.uniform(0.0, 5.0))
        eta = EtaVector(*rng.uniform(0.0, 100.0, size=3))
        total = math.fsum(scaled_bounding_function(j, eps, eta) for j in range(8))
        assert total == pytest.approx(1.0, rel=1e-13)


def test_g_poly_moments():
    # l = 0 projects onto the parity character: 1 for the even sector, 0 else
    eta = EtaVector(0.3, 0.7, 0.2)
    assert g_poly(0, 0, eta) == pytest.approx(1.0)
    for j in range(1, 8):
        assert g_poly(j, 0, eta) == pytest.approx(0.0, abs=1e-16)


def test_g_poly_first_order_anchors():
    eta = EtaVector(0.25, 0.5, 0.125)  # dyadic: the signed sum is exact
    assert g_poly(4, 1, eta) == 0.25  # single sinh on x
    assert g_poly(2, 1, eta) == 0.5
    assert g_poly(1, 1, eta) == 0.125
    assert g_poly(0, 1, eta) == 1.0  # even sector first moment is 1
    # two-sinh sectors have no first-order coefficient
    for j in (3, 5, 6):
        assert g_poly(j, 1, eta) == 0.0


def test_g_poly_against_signed_sum():
    """Recompute the coefficient from scratch for random inputs."""
    rng = np.random.default_rng(41)
    for _ in range(30):
        eta = EtaVector(*rng.uniform(0.0, 2.0, size=3))
        j = int(rng.integers(0, 8))
        l = int(rng.integers(0, 7))
        p = _case_parities(j)
        acc = 0.0
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    signs = (sx, sy, sz)
                    weight = 1.0
                    for parity, s in zip(p, signs):
                        if parity:
                            weight *= s
                    dot = sx * eta.eta_x + sy * eta.eta_y + sz * eta.eta_z
                    acc += weight * (1.0 + dot) ** l
        acc /= 8.0 * math.factorial(l)
        assert g_poly(j, l, eta) == pytest.approx(acc, rel=1e-12, abs=1e-15)


_ETA_AXIS = st.floats(0.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(
    j=st.integers(0, 7), l=st.integers(0, 80), ex=_ETA_AXIS, ey=_ETA_AXIS, ez=_ETA_AXIS
)
@example(j=4, l=6, ex=0.0, ey=0.0, ez=0.0)  # the signed sum once gave -5.4e-20 here
def test_g_poly_nonnegative(j, l, ex, ey, ez):
    """g_l >= 0 in floating point, and exactly 0 when a sinh axis has eta 0."""
    eta = EtaVector(ex, ey, ez)
    g = g_poly(j, l, eta)
    assert g >= 0.0
    if any(p and e == 0.0 for p, e in zip(_case_parities(j), eta.as_tuple())):
        assert g == 0.0


def test_delta_tail_completes_partial_sum():
    """Delta_d plus the Taylor head reproduces S_j."""
    eta = EtaVector(0.4, 1.1, 0.05)
    eps = 0.3
    for j in range(1, 7):
        for d in (0, 1, 3, 5):
            head = sum(g_poly(j, n, eta) * eps**n for n in range(d + 1))
            total = delta_tail(j, d, eps, eta)[0] + head
            assert total == pytest.approx(_reference_sector(j, eps, eta), rel=1e-12)


def test_delta_tail_zero_cases():
    eta = EtaVector(0.0, 1.0, 2.0)
    # sector 4 has sinh on the x axis; eta_x = 0 kills it identically
    assert delta_tail(4, 3, 0.7, eta)[0] == 0.0
    assert delta_tail(3, 2, 0.0, EtaVector.isotropic(1.0))[0] == 0.0
    # at eps = 0 every rate is 0, also where 1 + eta_x + eta_y + eta_z overflows
    huge = EtaVector.isotropic(1e308)
    assert delta_tail(1, 2, 0.0, huge) == (0.0, 0.0)
    assert distance_bound(2, 3, 0.0, huge).distance_bound == 0.0
    with pytest.raises(ValueError, match="rates and weights must be finite"):
        delta_tail(1, 2, 1e-300, huge)


def test_delta_tail_validation():
    eta = EtaVector.isotropic(1.0)
    for eps in (-0.1, math.nan):
        with pytest.raises(ValueError):
            delta_tail(1, 0, eps, eta)
        with pytest.raises(ValueError):
            distance_bound(1, 1, eps, eta)
    for j in (-1, 8):  # sector indices outside 0..7
        with pytest.raises(ValueError, match="sector index"):
            delta_tail(j, 0, 0.1, eta)
        with pytest.raises(ValueError, match="sector index"):
            g_poly(j, 1, eta)
    # a negative order is rejected also where the tail is identically 0
    for j, eps in ((3, 0.1), (3, 0.0), (4, 0.1)):
        with pytest.raises(ValueError, match="order must be >= 0"):
            delta_tail(j, -1, eps, EtaVector(0.0, 1.0, 1.0))


def test_eta_validation():
    with pytest.raises(ValueError):
        EtaVector(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        EtaVector(math.nan, 0.0, 0.0)


def test_channel_bounds_are_sector_tails():
    eta = EtaVector(0.2, 0.9, 1.4)
    eps = 0.15
    orders = decoupling_orders(2, 3)
    cb = distance_bound(2, 3, eps, eta).channel_bounds
    for ch, (a, b) in CASE_OF_CHANNEL.items():
        d = orders.for_channel(ch)
        expect = delta_tail(a, d, eps, eta)[0] + delta_tail(b, d, eps, eta)[0]
        assert cb.for_channel(ch) == pytest.approx(expect, rel=1e-14)


def test_distance_bound_expansion():
    """The distance bound is the channel-product expansion, rounded up."""
    rep = distance_bound(2, 2, 0.1, EtaVector.isotropic(1.0))
    L = rep.channel_bounds
    expanded = (
        L.L_x + L.L_y + L.L_z
        + L.L_x**2 + L.L_y**2 + L.L_z**2
        + L.L_x * L.L_y + L.L_y * L.L_z + L.L_x * L.L_z
    )
    assert expanded <= rep.distance_bound <= expanded * (1 + 1e-14)


def test_distance_bound_isotropy():
    rep = distance_bound(2, 2, 0.2, EtaVector.isotropic(0.7))
    cb = rep.channel_bounds
    assert cb.L_x == pytest.approx(cb.L_y, rel=1e-13)
    assert cb.L_y == pytest.approx(cb.L_z, rel=1e-13)


def test_leading_term_dominates_small_eps():
    rep = distance_bound(2, 2, 1e-4, EtaVector.isotropic(1.0))
    assert rep.distance_bound / rep.leading_term == pytest.approx(1.0, abs=1e-2)
    assert rep.leading_term <= rep.distance_bound


@pytest.mark.parametrize(
    "n1, n2, eps, eta",
    [
        (2, 2, 0.01, EtaVector.isotropic(1e-4)),
        (6, 6, 1e-3, EtaVector.isotropic(100.0)),
        (3, 9, 0.5, EtaVector(0.3, 0.3, 1e-2)),
        (1, 4, 0.2, EtaVector(0.0, 0.7, 0.4)),
        (200, 200, 1.0, EtaVector.isotropic(1.0)),  # (d+1)! beyond double range
    ],
)
def test_leading_term_against_mpmath(n1, n2, eps, eta):
    """D_leading = sum over channels of [g_{d+1}^(a) + g_{d+1}^(b)] eps^(d+1),
    with each g from the eight-term signed sum in 60-digit arithmetic."""
    orders = dict(zip("xyz", _orders_reference(n1, n2, "analytic")))
    with mp.workdps(60):
        expect = mp.mpf(0)
        for ch, sectors in CASE_OF_CHANNEL.items():
            l = orders[ch] + 1
            for j in sectors:
                acc = mp.mpf(0)
                for signs in itertools.product((1, -1), repeat=3):
                    weight = math.prod(s for s, p in zip(signs, _case_parities(j)) if p)
                    dot = sum(s * mp.mpf(e) for s, e in zip(signs, eta.as_tuple()))
                    acc += weight * (1 + dot) ** l
                expect += acc / (8 * mp.factorial(l)) * mp.mpf(eps) ** l
        expect = float(expect)
    assert distance_bound(n1, n2, eps, eta).leading_term == pytest.approx(expect, rel=1e-12)


def test_bound_monotone_in_eps():
    eta = EtaVector.isotropic(1.0)
    values = [distance_bound(2, 2, e, eta).distance_bound
              for e in np.logspace(-4, 0, 13)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ------------------------------------------------------------ order table


def _orders_reference(n1, n2, mode):
    """Fresh transcription of the suppression-order table."""
    d_x = n1
    if n1 % 2 == 0:
        d_y = max(n1, n2) if n2 % 2 == 0 else max(n1 + 1, n2)
        d_z = n2
    else:
        d_y = n1 if n2 % 2 == 0 else n1 + 1
        d_z = min(n1 + 1, n2)
        if mode == "numeric-footnote":
            d_z = min(2 * n1 + 1, n2)
    return d_x, d_y, d_z


def test_order_table_spot_values():
    assert decoupling_orders(2, 4).as_tuple() == (2, 4, 4)
    assert decoupling_orders(3, 3).as_tuple() == (3, 4, 3)
    assert decoupling_orders(1, 4).as_tuple() == (1, 1, 2)
    assert decoupling_orders(1, 4, "numeric-footnote").as_tuple() == (1, 1, 3)
    assert decoupling_orders(3, 9, "numeric-footnote").as_tuple() == (3, 4, 7)
    assert decoupling_orders(0, 0).as_tuple() == (0, 0, 0)
    assert decoupling_orders(0, 5).as_tuple() == (0, 5, 5)


def test_order_table_full_range():
    for n1 in range(0, 11):
        for n2 in range(0, 11):
            for mode in ("analytic", "numeric-footnote"):
                got = decoupling_orders(n1, n2, mode)
                assert (got.d_x, got.d_y, got.d_z) == _orders_reference(n1, n2, mode)


def test_order_validation():
    with pytest.raises(ValueError):
        decoupling_orders(-1, 2)
    with pytest.raises(ValueError):
        decoupling_orders(1, 2, "bogus")


# ----------------------------------------------------------------- sweeps


def test_default_eps_grid():
    grid = default_eps_grid(1e-4, 1.0, 41)
    assert len(grid) == 41
    assert grid[0] == pytest.approx(1e-4) and grid[-1] == pytest.approx(1.0)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        default_eps_grid(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        default_eps_grid(1e-4, 1.0, 1)
    for lo, hi in ((1e-4, math.inf), (math.inf, math.inf), (1e-4, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite 0 < lo < hi"):
            default_eps_grid(lo, hi, 3)


def test_preset_cells_shapes():
    fig2 = preset_cells("fig2")
    assert len(fig2) == 16
    assert {(n1, n2) for n1, n2, _ in fig2} == {(n, n) for n in (2, 6, 16, 34)}
    fig3 = preset_cells("fig3")
    assert [(n1, n2) for n1, n2, _ in fig3] == [(2, 10), (10, 10), (18, 10), (34, 10)]
    assert all(eta.eta_z == 1e-2 for _, _, eta in fig3)
    fig4 = preset_cells("fig4")
    assert [(n1, n2) for n1, n2, _ in fig4] == [(3, 9), (10, 9), (19, 9), (34, 9)]
    with pytest.raises(ValueError):
        preset_cells("fig9")


#: eps and eta draws that reach exact zeros, subnormal values and overflow.
_EPS = st.one_of(st.just(0.0), st.floats(1e-9, 1e3))
_ETA = st.one_of(st.just(0.0), st.floats(1e-6, 1e4))


@settings(max_examples=100, deadline=None)
@given(
    n1=st.integers(0, 60),
    n2=st.integers(0, 60),
    etas=st.tuples(_ETA, _ETA, _ETA),
    grid=st.lists(_EPS, max_size=8),
    mode=st.sampled_from(["analytic", "numeric-footnote"]),
)
def test_sweep_rows_are_one_point_rows(n1, n2, etas, grid, mode):
    """Each row of a cell is the one-point row at its eps, bit for bit, and a
    row is None exactly where the one-point view raises."""
    eta = EtaVector(*etas)
    for eps, row in zip(grid, sweep_rows(n1, n2, eta, grid, mode), strict=True):
        try:
            one = sweep_row(n1, n2, eps, eta, mode)
        except NonConvergenceError:
            assert row is None
        else:
            assert repr(row) == repr(one)


def test_sweep_row_matches_direct_eval():
    eta = EtaVector(0.1, 0.2, 0.3)
    row = sweep_row(2, 3, 0.05, eta)
    assert tuple(row) == QDD_SWEEP_COLUMNS
    rep = distance_bound(2, 3, 0.05, eta)
    assert row["D_bound"] == rep.distance_bound
    assert row["L_y"] == rep.channel_bounds.L_y
    assert (row["d_x"], row["d_y"], row["d_z"]) == (2, 3, 3)
