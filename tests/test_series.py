"""Tail summation tests against closed forms.

Every tail is an outward-rounded upper bound, so checks against an exact
value are one-sided: ``exact <= got <= exact * (1 + rel)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from ddbound.qdd_bounds import EtaVector, delta_tail
from ddbound.series import (
    exp_series_tail,
    power_coeffs,
    product_tail,
    series_cap,
    NonConvergenceError,
)


def tail_of(rates, weights, order, **kw):
    """The tail and first term of one series (one group of one slot)."""
    res = exp_series_tail(rates, weights, order, **kw)
    assert res.ok[0, 0]
    return float(res.tail[0, 0]), float(res.first[0, 0])


def upper(got, exact, rel):
    """``got`` bounds ``exact`` (an mpf) from above, within ``rel`` relative."""
    return exact <= got <= exact * (1 + rel)


def exp_tail(r, d):
    """sum_{n > d} r^n / n! in 60-digit arithmetic."""
    with mp.workdps(60):
        r = mp.mpf(r)
        return mp.exp(r) - sum(r**n / mp.factorial(n) for n in range(d + 1))


def test_single_exponential_tail():
    for r in (0.1, 1.0, 7.5):
        for d in (0, 1, 4):
            assert upper(tail_of((r,), (1.0,), d)[0], exp_tail(r, d), 1e-13)


def test_sinh_and_cosh_tails():
    r = 2.25
    # sinh keeps odd terms only; from order 0 the tail is sinh itself
    with mp.workdps(60):
        sinh, cosh = mp.sinh(r), mp.cosh(r) - 1
    assert upper(tail_of((r, -r), (0.5, -0.5), 0)[0], sinh, 1e-13)
    assert upper(tail_of((r, -r), (0.5, 0.5), 0)[0], cosh, 1e-13)


def test_exact_cancellation_is_bounded_by_its_slack():
    # weights that cancel term by term sum to exactly zero; the bound is the
    # rounding slack alone, tiny against the size of either exponential
    tail, first = tail_of((3.0, 3.0), (1.0, -1.0), 2)
    assert 0.0 < tail < 1e-12 * math.exp(3.0)
    assert 0.0 < first < 1e-12


def test_near_cancellation_converges():
    a, b = 3.0, 2.9
    expect = exp_tail(a, 1) - exp_tail(b, 1)
    assert upper(tail_of((a, b), (1.0, -1.0), 1)[0], expect, 1e-12)


def test_zero_rates():
    assert tail_of((0.0, 0.0), (2.0, 5.0), 3) == (0.0, 0.0)


def test_higher_order_drops_leading_terms():
    r = 1.7
    full = tail_of((r,), (1.0,), 0)[0]
    t1 = tail_of((r,), (1.0,), 1)[0]
    assert full - t1 == pytest.approx(r, rel=1e-13)


def test_weighted_combination():
    # 2 e^a - e^b tail past order 1
    a, b = 1.2, 0.4
    expect = 2 * exp_tail(a, 1) - exp_tail(b, 1)
    assert upper(tail_of((a, b), (2.0, -1.0), 1)[0], expect, 1e-12)


def test_first_term_is_the_leading_term():
    # the pass also returns its n = order + 1 term, r^(d+1) / (d+1)!; at
    # d = 70 that term lies in the pass's second block
    for r in (0.1, 1.0, 7.5, 300.0):
        for d in (0, 3, 70):
            with mp.workdps(60):
                expect = mp.mpf(r) ** (d + 1) / mp.factorial(d + 1)
            assert upper(tail_of((r,), (1.0,), d)[1], expect, 1e-13)
    # past n = 170, where n! is beyond double range, the term is still formed
    with mp.workdps(60):
        expect = mp.mpf(4) ** 200 / mp.factorial(200)
    assert upper(tail_of((4.0,), (1.0,), 199)[1], expect, 1e-13)


def test_large_rate_still_converges():
    # r = 300 peaks near n = 300; the cap formula must reach past the peak
    assert upper(tail_of((300.0,), (1.0,), 3)[0], exp_tail(300.0, 3), 1e-12)


def test_overflow_raises():
    res = exp_series_tail((1e8,), (1.0,), 5)
    assert not res.ok[0, 0] and math.isnan(res.tail[0, 0])
    # the one-row views raise where the batch flags
    with pytest.raises(NonConvergenceError):
        delta_tail(4, 2, 1e3, EtaVector.isotropic(1.0))


def test_input_validation():
    with pytest.raises(ValueError):
        exp_series_tail((1.0, 2.0), (1.0,), 0)  # length mismatch
    with pytest.raises(ValueError):
        exp_series_tail((math.inf,), (1.0,), 0)
    with pytest.raises(ValueError):
        exp_series_tail((1.0,), (math.nan,), 0)
    with pytest.raises(ValueError):
        exp_series_tail((1.0,), (1.0,), -1)
    with pytest.raises(ValueError):
        exp_series_tail((1.0,), (1.0,), 0, rate_err=-1.0)


def test_series_cap_grows_with_rate():
    assert series_cap(3, 1.0) == 3 + 1 + 200
    assert series_cap(3, 50.0) == 3 + 1 + 1000
    assert series_cap(0, 0.0) >= 200


def test_deterministic():
    args = ((0.7, 1.9, -0.7), (1.0, 0.25, -1.0), 2)
    a, b = exp_series_tail(*args), exp_series_tail(*args)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _series_at(res, g, s):
    """The tail, first term, converged flag and slack of series (g, s), as a tuple."""
    return tuple(x[g, s].item() for x in res)


def test_rows_do_not_depend_on_their_batch():
    # each series' bits are those of its own one-series pass, whatever shares
    # the batch: groups of one slot each ...
    rates = np.array([[0.5, 0.3], [300.0, -2.0], [1e-3, 2e-3], [7.0, 6.9]])
    weights = np.array([[1.0, -0.5], [1.0, 0.5], [2.0, -1.0], [1.0, -1.0]])
    orders = np.array([3, 1, 40, 0])
    batch = exp_series_tail(rates, weights[:, None], orders[:, None])
    assert batch.tail.shape == (4, 1)
    for i in range(len(orders)):
        one = exp_series_tail(rates[i], weights[i], orders[i])
        assert _series_at(one, 0, 0) == _series_at(batch, i, 0)
    # ... and groups of several slots, which share their group's rates; a
    # group whose rates are all 0 reads exactly 0, converged
    rates = np.array([[2.0, -0.5, 1.5], [0.0, 0.0, 0.0], [6.0, -1.5, 4.5]])
    weights = np.array([[1.0, 0.5, -0.25], [0.5, 0.5, 0.5], [2.0, -1.0, 0.0]])
    orders = np.array([0, 7, 70])
    errs = np.array([1e-15, 0.0, 0.0])
    batch = exp_series_tail(rates, weights, orders, errs)
    assert batch.tail.shape == (3, 3)
    for g in range(3):
        for s in range(3):
            one = exp_series_tail(rates[g], weights[s], orders[s], errs[g])
            assert _series_at(one, 0, 0) == _series_at(batch, g, s)
    assert all(_series_at(batch, 1, s) == (0.0, 0.0, True, 0.0) for s in range(3))


_RATE = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-800.0, 800.0),  # e^|r| past 709 overflows before the pass converges
    st.sampled_from([0.0, 1e8, -1e8]),
)


@st.composite
def _batches(draw):
    """A batch of groups 1-5, slots 1-6 and K 1-8, whose slots either share
    their group's |w| row (random signs on one row) or have their own."""
    groups, slots, k = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rates = np.array(draw(st.lists(_RATE, min_size=groups * k, max_size=groups * k)))
    if draw(st.booleans()):
        row = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=groups * k,
                                     max_size=groups * k)))
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=groups * slots * k,
                              max_size=groups * slots * k))
        weights = row.reshape(groups, 1, k) * np.reshape(signs, (groups, slots, k))
    else:
        weights = draw(st.lists(st.floats(-4.0, 4.0), min_size=groups * slots * k,
                                max_size=groups * slots * k))
    orders = draw(st.lists(st.integers(0, 40), min_size=groups * slots, max_size=groups * slots))
    errs = draw(st.lists(st.floats(0.0, 1e-6), min_size=groups, max_size=groups))
    return (rates.reshape(groups, k), np.reshape(weights, (groups, slots, k)),
            np.reshape(orders, (groups, slots)), np.array(errs))


def _bits(res, g, s):
    """The bytes of series (g, s)'s tail, first term, converged flag and slack,
    so NaN equals NaN and -0.0 differs from 0.0."""
    return tuple(x[g, s].tobytes() for x in res)


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_batched_series_equal_their_own_pass(batch):
    # the slots of a group may share one |w| row, which the pass then sums
    # once for them all; every series still reads the bits of its own pass,
    # converged, cut off at its cap or overflowed alike
    rates, weights, orders, errs = batch
    res = exp_series_tail(rates, weights, orders, errs)
    for g, s in np.ndindex(orders.shape):
        one = exp_series_tail(rates[g], weights[g, s], orders[g, s], errs[g])
        assert _bits(one, 0, 0) == _bits(res, g, s)


def test_rate_error_widens_the_bound():
    # rates known only to within 1e-12 must bound the tail at the largest rate
    r, d, err = 2.0, 5, 1e-12
    tail = tail_of((r,), (1.0,), d, rate_err=err)[0]
    assert tail >= exp_tail(r + err, d)
    assert tail == pytest.approx(float(exp_tail(r, d)), rel=1e-10)


def test_product_tail_of_sinh_times_exp():
    # P = sinh(x) from its nonnegative coefficients, R = e^r; the tail of
    # P * R past d against its 60-digit value, including its first term
    x, r, d = 1e-3, 0.7, 4
    length = d + 2 + 32
    p = power_coeffs([x], length)
    p[:, 0::2] = 0.0
    res = product_tail(p, x, [[r]], [[1.0]], d)
    with mp.workdps(60):
        xm, rm = mp.mpf(x), mp.mpf(r)
        coeffs = mp.taylor(lambda t: mp.sinh(xm * t) * mp.exp(rm * t), 0, d + 1)
        exact = mp.sinh(xm) * mp.exp(rm) - sum(coeffs[: d + 1])
        first = coeffs[d + 1]
    assert res.ok[0]
    assert upper(res.tail[0], exact, 1e-13)
    assert upper(res.first[0], first, 1e-13)
