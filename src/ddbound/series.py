"""Outward-rounded tail sums of exponential-type power series, batched.

Each bound family writes its bounding function once, as the series

    sum_n c_n,    c_n = sum_i w_i * r_i**n / n!,

with signed weights ``w_i`` and growth rates ``r_i`` whose combined terms
``c_n`` are nonnegative.  ``exp_series_tail`` sums the tail past an order d for
a batch of such series, and also returns the tail's first term (n = d + 1).
``r_i**n / n!`` is advanced as a running product of ``r_i / k``, so no power
or factorial is formed in isolation.

The caller's array shapes are the batch's layout.  A *group* is one row of
rates (for a bound family, one eps point), and its *slots* are the series
that share those rates, each with its own weights and order (the live QDD
sectors at that eps; NUDD has one).  A group's running products are formed
once for all its slots, and every result is a (groups, slots) array.  The
absolute sums ``sum_i |w_i| |path_i|`` and the rate-drift slack read the
weights only through |w|, so where every group's slots share one |w| row (the
QDD sectors, whose weights are all +-1/8) they are formed once per group too.

Every returned value is an upper bound in floating point, by construction:

* each term carries a slack that bounds its rounding error: Higham's
  dot-product bound ``gamma_k * sum_i |w_i| |path_i|`` (Accuracy and Stability
  of Numerical Algorithms, ch. 3), widened for the relative error of the
  running products, plus ``W * rate_err * R**(n-1) / (n-1)!`` for rates known
  only to within ``rate_err`` (W = sum |w_i|, R = max |r_i| + rate_err);
* one absolute floor per series, a few multiples of 2**-1074 per rounding,
  covers underflow;
* the truncation remainder ``2 W R**(n+1) / (n+1)!`` (valid once n + 1 >= 2R)
  is added to the total, not only used to stop, so where summation stops
  (once the remainder falls below the fixed share ``_REL_TOL`` of the partial
  tail) sets only how tight a bound is, never whether it holds;
* the nonnegative sum is widened by ``1 + gamma_N`` and rounded up one ulp.

Signed weights cancel where rates nearly coincide (small eta), and there the
slack, though rigorous, is loose.  ``product_tail`` is the nonnegative form
for such rows: the series of ``P * R`` where ``P`` has explicit nonnegative
coefficients and ``R`` is an exponential sum without severe cancellation.
Its tail past d is ``sum_k p_k * T_{d-k}(R)``, and every ``T_m(R)`` comes from
the suffix sums of one pass over R.

A series' result depends only on its own inputs, not on the rest of the
batch: terms are formed in fixed blocks of n, each block summed pairwise and
the blocks in order (suffix sums run sequentially).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "NORMAL_MIN",
    "NonConvergenceError",
    "SeriesTail",
    "cell_ok",
    "coeff_count",
    "exp_series_tail",
    "first_row",
    "gamma",
    "keep_lower",
    "loose",
    "not_converged",
    "power_coeffs",
    "product_tail",
    "round_up",
    "scale_rates",
]

_BLOCK = 64
_P_EXTRA = 32  # coefficients of P that product_tail reads past order d + 1
_U = 2.0**-53
_TINY = 2.0**-1074
_REL_TOL = 1e-15  # remainder share of the partial tail at which summation stops

#: Smallest normal double; a nonzero value below it has lost significant digits.
NORMAL_MIN = 2.0**-1022

#: A series whose rounding slack exceeds this fraction of its tail is loose; the
#: bound families then also sum it in a nonnegative form (``product_tail``)
#: and keep the lower bound (``keep_lower``).
_LOOSE = 1e-10


class NonConvergenceError(RuntimeError):
    """Tail summation hit its iteration cap or produced non-finite values."""


class SeriesTail(NamedTuple):
    """Per-series results of a tail pass; ``tail`` and ``first`` are NaN where not ``ok``.

    ``slack`` is the rounding allowance summed into the tail, from which a
    caller judges whether the series is tight.
    """

    tail: np.ndarray
    first: np.ndarray
    ok: np.ndarray
    slack: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "SeriesTail":
        """Results for series that are identically zero."""
        return cls(np.zeros(shape), np.zeros(shape), np.ones(shape, dtype=bool), np.zeros(shape))


def not_converged(epsilon: float) -> NonConvergenceError:
    """The error for a grid point whose tail did not converge or overflowed."""
    return NonConvergenceError(
        f"tail series did not converge within its cap or overflowed at epsilon={epsilon:g}; "
        "the requested (epsilon, eta) regime is outside double range"
    )


def loose(res: SeriesTail) -> np.ndarray:
    """Mask of the converged series whose slack exceeds ``_LOOSE`` of their tail."""
    return res.ok & (res.slack > _LOOSE * res.tail)


def keep_lower(res: SeriesTail, at: tuple, alt: SeriesTail) -> None:
    """Where ``alt`` (the entries of ``res`` at the index tuple ``at``) bounds
    lower, take its tail and first term."""
    better = alt.ok & (alt.tail < res.tail[at])
    at = tuple(i[better] for i in at)
    res.tail[at] = alt.tail[better]
    res.first[at] = alt.first[better]


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error of n roundings."""
    if not isinstance(n, (int, float)):
        n = np.asarray(n, dtype=float)
    return n * _U / (1.0 - n * _U)


def round_up(x):
    """The next double above x: an upper bound on the exact result that x rounds.

    Zero stays zero: every value rounded up here is a sum or product of
    nonnegative bounds, which rounds to zero only when they are all zero.
    """
    return np.where(x == 0.0, x, np.nextafter(x, np.inf))


def cell_ok(columns: dict, converged) -> np.ndarray:
    """The row rule of a table: the mask of its good rows.

    It decides the failed rows of every bounds cell and of every CLI table
    (``bounds``, ``sweep``, ``verify bound``).  ``columns`` maps each column
    to a float array over the rows (a cell's epsilon and values, a run's
    measured and bound values), to a list of row text, or to one value that
    every row shares; ``converged`` is the mask of the rows whose pass
    converged (a bounds cell's tail pass, an experiment's bound).  A row
    fails where it did not converge or any of its float values is outside
    double range.
    """
    per_point = [v for v in columns.values() if isinstance(v, np.ndarray)]
    return np.logical_and.reduce([converged, *map(np.isfinite, per_point)])


def first_row(columns: dict, converged) -> dict:
    """Point 0 of a cell's columns as a dict keyed like ``columns``.

    Where the point fails the row rule ``cell_ok``, raises its
    NonConvergenceError instead: the not-converged error, or the error that
    names the float columns outside double range.
    """
    if not converged[0]:
        raise not_converged(columns["epsilon"][0])
    bad = [c for c, v in columns.items() if isinstance(v, np.ndarray) and not np.isfinite(v[0])]
    if bad:
        raise NonConvergenceError(f"{', '.join(bad)} outside double range")
    return {c: v[0].item() if isinstance(v, np.ndarray) else v for c, v in columns.items()}


def series_cap(order, r_max):
    """Hard iteration cap: d + 1 + max(200, 20 * ceil(r_max)), per series."""
    return np.asarray(order) + 1 + np.maximum(200.0, 20.0 * np.ceil(r_max))


def scale_rates(epsilon, factors) -> np.ndarray:
    """eps * factors, broadcast: the rates (or rate errors) of a series in eps.
    A product beyond double range is inf, for ``exp_series_tail`` to reject,
    without a warning; at eps = 0 it is exactly 0, also for an inf factor."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(epsilon, factors)
    return np.where(np.equal(epsilon, 0.0), 0.0, out)


def _series_arrays(rates, weights, orders, rate_err):
    """Rates (groups, K), weights (groups, slots, K), orders (groups, slots)
    and rate errors (groups,), checked and broadcast to those shapes."""
    r = np.asarray(rates, dtype=float)
    r = r[None] if r.ndim == 1 else r
    w = np.asarray(weights, dtype=float)
    orders = np.asarray(orders, dtype=np.int64)
    shape = np.broadcast_shapes(r.shape[:1] + (1,), w.shape[:-1], orders.shape)
    if r.ndim != 2 or r.shape[1] == 0 or w.shape[-1:] != r.shape[1:] or shape[:-1] != r.shape[:1]:
        raise ValueError("need rates (groups, K), weights (.., slots, K), orders (.., slots)")
    if not (np.isfinite(r).all() and np.isfinite(w).all()):
        raise ValueError("rates and weights must be finite")
    if not (orders >= 0).all():
        raise ValueError("order must be >= 0")
    w = np.broadcast_to(w, shape + r.shape[1:])
    return r, w, np.broadcast_to(orders, shape), _per_row(rate_err, r.shape[0], float, "rate_err")


def _per_row(values, rows: int, dtype, name: str) -> np.ndarray:
    out = np.array(values, dtype=dtype, ndmin=1)
    if out.shape != (rows,):
        out = np.broadcast_to(out, (rows,)).copy()
    if not (out >= 0).all():
        raise ValueError(f"{name} must be >= 0")
    return out


class _Pass(NamedTuple):
    """One pass over a batch of series, per (group, slot); ``terms`` per n too."""

    terms: np.ndarray  # upper bounds on c_n, n = 0.., less the underflow floor
    part: np.ndarray  # their sum past the order: pairwise per block, then blockwise
    rem: np.ndarray  # truncation remainder past the last term
    floor: np.ndarray  # underflow allowance, for every term up to the last at once
    slack: np.ndarray  # rounding slack within ``part``
    ok: np.ndarray  # converged, and finite
    n_end: np.ndarray  # last n summed


@lru_cache(maxsize=256)
def _block_factors(n_lo: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n over the block from ``n_lo``, and the rounding factors of its terms
    (``gamma(3n + 2K + 8)``) and of their rate drift (``1 + gamma(3n + 8)``)."""
    ns = np.arange(n_lo, n_lo + _BLOCK, dtype=float)
    factors = (ns, gamma(3 * ns + 2 * k + 8), 1.0 + gamma(3 * ns + 8))
    for f in factors:
        f.flags.writeable = False
    return factors


@np.errstate(over="ignore", invalid="ignore", under="ignore")
def _term_bounds(r, w, orders, rate_err) -> _Pass:
    """Term bounds of every series, up to where its remainder meets ``_REL_TOL``.

    Overflow is an expected signal, caught by the finiteness test.  Underflow
    to subnormals can lose up to 2**-1075 per rounding.  A term n takes at
    most 3n + K + 2 roundings, each error scaled by at most max(W, 1) later
    on, and so does the remainder past it, so ``floor`` = 2**-1074
    (3 max(W, 1) (n_end + 1)**2 + (K + 2)(n_end + 2)) covers a series' terms
    and remainder together; it is added once per series rather than per
    term, because arithmetic on subnormals is slow.

    The layout is the caller's: each group (row of ``r``, with its
    ``rate_err``) shares one running product of its rates, and each of its
    slots applies its own weights (``w[group, slot]``) and order, term by
    term in a fixed order.  Slots with equal |w| rows share one absolute sum
    and one drift slack, the same bits each would form alone.
    """
    k = r.shape[1]
    shape = orders.shape
    radius = np.abs(r).max(axis=1) + rate_err  # bounds |true rate|
    abs_w = np.abs(w)
    if (abs_w == abs_w[:, :1]).all():
        abs_w = abs_w[:, :1]  # the slots share |w|: one absolute sum serves them all
    big_w = abs_w.sum(axis=2) * (1.0 + gamma(k))
    start = orders + 1
    cap = series_cap(orders, radius[:, None])
    drift = big_w * rate_err[:, None]

    active = np.repeat((radius > 0.0)[:, None], shape[1], axis=1)
    ok = ~active  # all rates zero: every term past n = 0 is 0
    rem, slack, part = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    n_end = np.zeros(shape, dtype=np.int64)
    u = np.ones((shape[0], k))  # r_i**(n-1) / (n-1)! at the block start
    m = np.ones(shape[0])  # radius**(n-1) / (n-1)! at the block start
    blocks = []
    n_lo = 1
    while active.any():
        gi = np.flatnonzero(active.any(axis=1))
        at = slice(None) if gi.size == shape[0] else gi
        act = active[at]
        every = act.all()
        ns, term_gamma, drift_gamma = _block_factors(n_lo, k)
        n_hi = n_lo + _BLOCK - 1
        rad = radius[at]
        path = r[at][:, :, None] / ns
        np.cumprod(path, axis=2, out=path)
        path *= u[at][:, :, None]
        m_path = np.cumprod(np.concatenate([m[at][:, None], rad[:, None] / ns], axis=1), axis=1)
        c = np.einsum("gsk,gkn->gsn", w[at], path)
        s = term_gamma * np.einsum("gsk,gkn->gsn", abs_w[at], np.abs(path))
        s += (drift[at][:, :, None] * m_path[:, None, :-1]) * drift_gamma
        t = c + s
        past = ns >= start[at][:, :, None]
        if not every:
            past &= act[:, :, None]
        part[at] += np.where(past, t, 0.0).sum(axis=2)
        slack[at] += np.where(past, s, 0.0).sum(axis=2)
        rem_now = 2.0 * big_w[at] * (m_path[:, -1] * rad / (n_hi + 1))[:, None]
        rem_now *= 1.0 + gamma(3 * n_hi + 12)
        finite = np.isfinite(part[at]) & np.isfinite(rem_now) & np.isfinite(t).all(axis=2)
        ready = (n_hi >= start[at]) & (n_hi + 1 >= 2.0 * rad)[:, None]
        done = act & finite & ready & ((rem_now <= _REL_TOL * part[at]) | (rem_now < 1e-300))
        failed = act & (~finite | (~done & (n_hi >= cap[at])))
        blocks.append((gi, t if every else np.where(act[:, :, None], t, 0.0)))
        rem[at] = np.where(done, rem_now, rem[at])
        ok[at] |= done
        n_end[at] = np.where(act, n_hi, n_end[at])
        u[at] = path[:, :, -1]
        m[at] = m_path[:, -1]
        active[at] = act & ~(done | failed)
        n_lo += _BLOCK

    terms = np.zeros(shape + (1 + _BLOCK * len(blocks),))
    terms[:, :, 0] = w.sum(axis=2) + gamma(k) * big_w  # c_0 = sum_i w_i
    for b, (gi, t) in enumerate(blocks):
        terms[gi, :, 1 + b * _BLOCK : 1 + (b + 1) * _BLOCK] = t
    ends = n_end + 1.0
    floor = _TINY * (3 * np.maximum(big_w, 1.0) * ends**2 + (k + 2) * (ends + 1.0))
    return _Pass(terms, part, rem, floor, slack, ok, n_end)


def _suffix_bounds(terms, rem, n_end, at) -> np.ndarray:
    """Upper bounds on the sums of c_n over n >= ``at[row, i]``, remainder included.

    The terms are nonnegative upper bounds, summed sequentially from the last
    one down, so trailing zeros (another row's longer pass) change nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
        suffix = np.concatenate([suffix, np.zeros((terms.shape[0], 1))], axis=1)
        total = np.take_along_axis(suffix, at, axis=1) + rem[:, None]
        return round_up(total * (1.0 + gamma(n_end + 4))[:, None])


def exp_series_tail(rates, weights, orders, rate_err=0.0) -> SeriesTail:
    """Upper bounds on  sum_{n > d} sum_i w_i * r_i**n / n!  for each series.

    ``rates`` is (groups, K), a 1-d array one group, and ``rate_err`` (per
    group, default 0) bounds how far the true rates lie from them; the
    weights broadcast to (groups, slots, K) and the orders d to (groups,
    slots).  The combined per-n terms must be nonnegative, as every bounding
    series here is.  Returns a ``SeriesTail`` of (groups, slots) arrays: the
    outward-rounded tail, its first term (n = d + 1, the leading term, also
    an upper bound), the converged mask and the slack; a group whose rates
    are all 0 has tail and first term exactly 0.

    Summation of a series stops once the remainder bound drops below
    ``_REL_TOL`` times its partial tail (or below 1e-300).  A series is not
    ``ok`` if the cap ``d + 1 + max(200, 20*ceil(R))`` is reached first or
    if intermediates overflow.
    """
    r, w, orders, rate_err = _series_arrays(rates, weights, orders, rate_err)
    ps = _term_bounds(r, w, orders, rate_err)
    ok = ps.ok
    with np.errstate(over="ignore", invalid="ignore"):
        tail = round_up((ps.part + ps.rem + ps.floor) * (1.0 + gamma(ps.n_end + 5)))
        at = np.minimum(orders + 1, ps.terms.shape[2] - 1)
        first = np.take_along_axis(ps.terms, at[:, :, None], axis=2)[:, :, 0]
        first = round_up((first + ps.floor) * (1.0 + gamma(2)))
    zero = ps.n_end == 0  # no term past n = 0 was formed: all rates are exactly zero
    tail[zero] = first[zero] = 0.0
    return SeriesTail(np.where(ok, tail, np.nan), np.where(ok, first, np.nan), ok, ps.slack)


def coeff_count(orders) -> int:
    """Columns of P's coefficients that ``product_tail`` reads at these orders."""
    return int(np.max(orders)) + 2 + _P_EXTRA


def power_coeffs(x, length: int) -> np.ndarray:
    """Rows of x**k / k! for k = 0..length-1, as running products of x / k."""
    x = np.asarray(x, dtype=float)
    out = np.ones((x.size, length))
    with np.errstate(under="ignore", over="ignore"):
        out[:, 1:] = np.cumprod(x[:, None] / np.arange(1.0, length), axis=1)
    return out


def product_tail(p, big_x, rates, weights, orders, rate_err=0.0) -> SeriesTail:
    """Upper bounds on the tail past d of the product series P * R, per row.

    P has nonnegative coefficients: ``p[row, k]`` is the k-th one computed to
    within relative error gamma(8k + 8), and every coefficient is at most
    ``big_x**k / k!``.  Columns up to d + 1 + 32 are read (``coeff_count``);
    the coefficients past them sum to at most the geometric bound
    X^L/L! / (1 - X/(L+1)) with L = d + 2 + 32, which is infinite unless
    X < L + 1.  R has nonnegative terms and one series per row: its rates
    and weights are (rows, K), each row a group of one slot of
    ``exp_series_tail``.  With ``T_m(R)`` the tail of R past m (all of R for
    m < 0),

        tail = sum_k p_k T_{d-k}(R) + rest(P) * R,
        first = sum_{k <= d+1} p_k R_{d+1-k},

    sums of nonnegative terms only, widened by their rounding.  The slack is
    R's.
    """
    w, orders = np.asarray(weights, dtype=float)[..., None, :], np.asarray(orders)[..., None]
    r, w, orders, rate_err = _series_arrays(rates, w, orders, rate_err)
    orders = orders[:, 0]
    rows = r.shape[0]
    big_x = _per_row(big_x, rows, float, "big_x")
    lengths = orders + 2 + _P_EXTRA
    length = int(lengths.max())
    ks = np.arange(length)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # Every coefficient is at most e^X, which scales the underflow floor.
        scale = np.maximum(1.0, np.exp(big_x) * (1.0 + gamma(4)))
        floor = _TINY * (8 * lengths + 8) * scale
        p = np.asarray(p, dtype=float)[:, :length] * (1.0 + gamma(8 * ks + 8)) + floor[:, None]
        p[ks[None, :] >= lengths[:, None]] = 0.0
        head = power_coeffs(big_x, length + 1)[np.arange(rows), lengths]
        ratio = big_x / (lengths + 1)
        rest = np.where(
            ratio < 1.0, head * (1.0 + gamma(3 * lengths + 8)) / (1.0 - ratio), np.inf
        )
        rest = rest + floor

    ps = _Pass(*(x[:, 0] for x in _term_bounds(r, w, orders[:, None], rate_err)))
    # tails[:, 0] bounds all of R, tails[:, 1 + k] bounds T_{d-k}(R)
    last = ps.terms.shape[1] - 1
    at = np.clip(orders[:, None] - ks + 1, 0, last + 1)
    at = np.concatenate([at[:, :1] * 0, at], axis=1)
    tails = _suffix_bounds(ps.terms, ps.rem + ps.floor, ps.n_end, at)
    back = orders[:, None] + 1 - ks
    with np.errstate(over="ignore", invalid="ignore"):
        conv = p * tails[:, 1:]
        tail = np.cumsum(conv, axis=1)[:, -1] + rest * tails[:, 0]
        tail = round_up(tail * (1.0 + gamma(lengths + 4)))
        r_terms = np.take_along_axis(ps.terms, np.clip(back, 0, last), axis=1)
        lead = np.where(back >= 0, p * r_terms, 0.0)
        lead = np.cumsum(lead, axis=1)[:, -1] + np.where(back >= 0, p, 0.0).sum(axis=1) * ps.floor
        first = round_up(lead * (1.0 + gamma(lengths + 4)))
    ok = ps.ok & np.isfinite(tail) & np.isfinite(first)
    return SeriesTail(np.where(ok, tail, np.nan), np.where(ok, first, np.nan), ok, ps.slack)
