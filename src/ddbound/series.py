"""Stable tail summation for exponential-type power series.

Each bound family writes its bounding function once, as the series

    sum_n  sum_i w_i * r_i**n / n!

with signed weights ``w_i`` and growth rates ``r_i`` whose combined terms are
provably nonnegative.  ``exp_series_tail`` sums the tail past a suppression
order d and also returns its first term, the n = d + 1 leading term;
``exp_series_coeff`` gives one coefficient.  Powers and factorials are never
formed in isolation; each ``r_i**n / n!`` is advanced multiplicatively, which
keeps every intermediate on the order of ``exp(max|r_i|)`` and avoids
spurious overflow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonConvergenceError",
    "check_finite",
    "check_rel_tol",
    "exp_series_coeff",
    "exp_series_tail",
]

_BLOCK = 64


class NonConvergenceError(RuntimeError):
    """Tail summation hit its iteration cap or produced non-finite values."""


def check_finite(**values: float) -> None:
    """Raise NonConvergenceError naming each reported value beyond double range."""
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise NonConvergenceError(f"{', '.join(bad)} outside double range")


def check_rel_tol(rel_tol: float) -> None:
    """Raise ValueError unless the tail tolerance lies in (0, 1e-6]."""
    if not 0.0 < rel_tol <= 1e-6:
        raise ValueError("rel_tol must be in (0, 1e-6]")


def series_cap(order: int, r_max: float) -> int:
    """Hard iteration cap: d + 1 + max(200, 20 * ceil(r_max))."""
    return order + 1 + max(200, 20 * math.ceil(r_max))


def _series_arrays(rates, weights) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(rates, dtype=float)
    w = np.asarray(weights, dtype=float)
    if r.shape != w.shape or r.ndim != 1 or r.size == 0:
        raise ValueError("rates and weights must be matching 1-d sequences")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(w))):
        raise ValueError("rates and weights must be finite")
    return r, w


def exp_series_coeff(rates, weights, n: int) -> float:
    """The n-th term  sum_i weights[i] * rates[i]**n / n!  of the series.

    Each ``rates[i]**n / n!`` is the running product of ``rates[i] / k`` over
    k = 1..n, so no factorial is formed; a term beyond double range comes
    back non-finite.
    """
    r, w = _series_arrays(rates, weights)
    if n < 0:
        raise ValueError("n must be >= 0")
    u = np.ones_like(r)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            u *= r / k
        return float(w @ u)


def exp_series_tail(
    rates,
    weights,
    order: int,
    rel_tol: float = 1e-15,
) -> tuple[float, float]:
    """Sum the series tail  sum_{n > order} sum_i weights[i] * rates[i]**n / n!.

    Returns ``(tail, first_term)``, where ``first_term`` is the n = order + 1
    term of the same pass: the leading term of the tail.

    The combined per-``n`` terms must be nonnegative (true for every bounding
    series here); tiny negative roundoff is clamped to zero, in the first term
    too.  Summation stops once a rigorous remainder estimate,

        2 * (sum_i |w_i|) * r_max**(n+1) / (n+1)!   valid for n+1 >= 2*r_max,

    drops below ``rel_tol`` times the partial sum (or below the subnormal
    floor when the sum is identically zero).

    Raises
    ------
    NonConvergenceError
        If the cap ``order + 1 + max(200, 20*ceil(r_max))`` is reached first,
        or if intermediates overflow to non-finite values.
    """
    r, w = _series_arrays(rates, weights)
    if order < 0:
        raise ValueError("order must be >= 0")

    r_max = float(np.max(np.abs(r)))
    if r_max == 0.0:
        return 0.0, 0.0
    start = order + 1
    cap = series_cap(order, r_max)
    w_abs = float(np.sum(np.abs(w)))

    total = first = 0.0
    u = np.ones_like(r)  # r_i**n / n! at the current n
    m = 1.0  # r_max**n / n!
    n_lo = 1
    while True:
        n_hi = min(n_lo + _BLOCK - 1, cap)
        ks = np.arange(n_lo, n_hi + 1, dtype=float)
        # Overflow here is an expected signal, caught via the finiteness check
        # below; keep numpy quiet about it.
        with np.errstate(over="ignore", invalid="ignore"):
            path = np.cumprod(r[:, None] / ks[None, :], axis=1) * u[:, None]
            m_path = np.cumprod(r_max / ks) * m
            if n_hi >= start:
                terms = w @ path[:, max(start - n_lo, 0):]
                np.maximum(terms, 0.0, out=terms)
                if n_lo <= start:
                    first = float(terms[0])
                total += float(terms.sum())
        u = path[:, -1]
        m = float(m_path[-1])
        if not (math.isfinite(total) and math.isfinite(m)):
            raise NonConvergenceError(
                f"series overflowed at n={n_hi} (r_max={r_max:g}); "
                "the requested (epsilon, eta) regime is outside double range"
            )
        remainder = 2.0 * w_abs * m * r_max / (n_hi + 1)
        if n_hi >= start and n_hi + 1 >= 2.0 * r_max:
            if remainder <= rel_tol * total or remainder < 1e-300:
                return total, first
        if n_hi >= cap:
            raise NonConvergenceError(
                f"tail did not meet rel_tol={rel_tol:g} within {cap} terms "
                f"(r_max={r_max:g})"
            )
        n_lo = n_hi + 1
