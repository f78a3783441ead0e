"""Tail summation tests against closed forms."""

import math

import numpy as np
import pytest

import mpmath as mp

from ddbound.series import (
    NonConvergenceError,
    exp_series_coeff,
    exp_series_tail,
    series_cap,
)


def test_single_exponential_tail():
    # tail of e^r past order d, checked against the direct difference
    for r in (0.1, 1.0, 7.5):
        for d in (0, 1, 4):
            head = sum(r**n / math.factorial(n) for n in range(d + 1))
            tail = exp_series_tail((r,), (1.0,), d)[0]
            assert tail == pytest.approx(math.exp(r) - head, rel=1e-13)


def test_sinh_and_cosh_tails():
    r = 2.25
    # sinh keeps odd terms only; from order 0 the tail is sinh itself
    assert exp_series_tail((r, -r), (0.5, -0.5), 0)[0] == pytest.approx(
        math.sinh(r), rel=1e-14
    )
    assert exp_series_tail((r, -r), (0.5, 0.5), 0)[0] == pytest.approx(
        math.cosh(r) - 1.0, rel=1e-14
    )


def test_exact_cancellation_fails_loud():
    # weights that cancel term by term leave no scale for the relative
    # stopping rule; the cap turns that into an explicit error instead of a
    # silent grind (callers shortcut exact zeros before reaching the series)
    with pytest.raises(NonConvergenceError):
        exp_series_tail((3.0, 3.0), (1.0, -1.0), 2)


def test_near_cancellation_converges():
    a, b = 3.0, 2.9
    expect = (math.exp(a) - 1 - a) - (math.exp(b) - 1 - b)
    got = exp_series_tail((a, b), (1.0, -1.0), 1)[0]
    assert got == pytest.approx(expect, rel=1e-12)


def test_zero_rates():
    assert exp_series_tail((0.0, 0.0), (2.0, 5.0), 3)[0] == 0.0


def test_higher_order_drops_leading_terms():
    r = 1.7
    full = exp_series_tail((r,), (1.0,), 0)[0]
    t1 = exp_series_tail((r,), (1.0,), 1)[0]
    assert full - t1 == pytest.approx(r, rel=1e-13)


def test_weighted_combination():
    # 2 e^a - e^b tail past order 1
    a, b = 1.2, 0.4
    expect = 2 * (math.exp(a) - 1 - a) - (math.exp(b) - 1 - b)
    got = exp_series_tail((a, b), (2.0, -1.0), 1)[0]
    assert got == pytest.approx(expect, rel=1e-12)


def test_first_term_is_the_leading_term():
    # the pass also returns its n = order + 1 term, r^(d+1) / (d+1)!; at
    # d = 70 that term lies in the pass's second block
    for r in (0.1, 1.0, 7.5, 300.0):
        for d in (0, 3, 70):
            first = exp_series_tail((r,), (1.0,), d)[1]
            assert first == pytest.approx(r ** (d + 1) / math.factorial(d + 1), rel=1e-13)
    assert exp_series_tail((0.0, 0.0), (2.0, 5.0), 3)[1] == 0.0


def test_coeff_is_the_series_term():
    rates, weights = (2.0, -0.5, 1.25), (1.0, 0.25, -0.5)
    for n in (0, 1, 5, 30):
        expect = sum(w * r**n for r, w in zip(rates, weights)) / math.factorial(n)
        assert exp_series_coeff(rates, weights, n) == pytest.approx(expect, rel=1e-13)
    # past n = 170, where n! is beyond double range, the term is still formed
    with mp.workdps(60):
        expect = float(mp.mpf(4) ** 200 / mp.factorial(200))
    assert exp_series_coeff((4.0,), (1.0,), 200) == pytest.approx(expect, rel=1e-13)
    assert exp_series_tail((4.0,), (1.0,), 199)[1] == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError):
        exp_series_coeff((1.0,), (1.0,), -1)


def test_large_rate_still_converges():
    # r = 300 peaks near n = 300; the cap formula must reach past the peak
    r = 300.0
    got = exp_series_tail((r,), (1.0,), 3)[0]
    head = sum(r**n / math.factorial(n) for n in range(4))
    assert got == pytest.approx(math.exp(r) - head, rel=1e-12)


def test_overflow_raises():
    with pytest.raises(NonConvergenceError):
        exp_series_tail((1e8,), (1.0,), 5)


def test_input_validation():
    with pytest.raises(ValueError):
        exp_series_tail((1.0, 2.0), (1.0,), 0)  # length mismatch
    with pytest.raises(ValueError):
        exp_series_tail((math.inf,), (1.0,), 0)
    with pytest.raises(ValueError):
        exp_series_tail((1.0,), (math.nan,), 0)
    with pytest.raises(ValueError):
        exp_series_tail((1.0,), (1.0,), -1)


def test_series_cap_grows_with_rate():
    assert series_cap(3, 1.0) == 3 + 1 + 200
    assert series_cap(3, 50.0) == 3 + 1 + 1000
    assert series_cap(0, 0.0) >= 200


def test_deterministic():
    args = ((0.7, 1.9, -0.7), (1.0, 0.25, -1.0), 2)
    assert exp_series_tail(*args) == exp_series_tail(*args)
