"""Pulse schedules and switching functions for nested Uhrig-type decoupling.

All times are expressed as fractions of the total evolution window, i.e. the
schedule lives on [0, 1].  A single-axis Uhrig sequence of order ``N`` places
pulses at ``sin^2(j*pi/(2N+2))``; when ``N`` is odd one extra pulse is appended
at the end of the interval so the toggling frame closes, giving an even
effective pulse count ``N' = N + N mod 2``.  Nested sequences subdivide each
interval of the next level up by the same rule, innermost level first in time.

Conventions
-----------
* Levels are 1-based.  Odd level ``2j-1`` applies z pulses to qubit ``j-1``
  (0-based), even level ``2j`` applies x pulses to qubit ``j-1``.  The highest
  level is outermost.
* Two-level nesting on one qubit (z inside x) is the quadratic sequence; the
  general multi-qubit form nests ``2m`` levels.
* At coincident times, lower-level (inner) pulses come first: the inner block
  finishes before the enclosing pulse fires.

A schedule is its orders.  ``nesting_grid`` lays out the finest intervals of
the nesting as one lexicographic index grid, and every view of a schedule is
read from it: the pulse events, the switching functions, and the certifier's
intervals, lengths and signs (``dyson``).
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "NestingGrid",
    "PulseEvent",
    "PulseSchedule",
    "SwitchingProfile",
    "udd_offsets",
    "qdd_schedule",
    "nudd_schedule",
    "nesting_grid",
    "switching_qdd",
]

#: Pauli label for each single-qubit index pair (z-flip parity, x-flip parity).
_MU_LABELS: Mapping[tuple[int, int], str] = {
    (0, 0): "0",
    (1, 0): "x",
    (1, 1): "y",
    (0, 1): "z",
}


def _effective_order(n: int) -> int:
    """Even pulse count N' = N + (N mod 2) of an order-``n`` Uhrig layer."""
    return n + n % 2


# Orders 0..2 have exactly representable positions; return them verbatim so
# coincident instants and the exact-arithmetic backends agree bit-for-bit.
_DYADIC_SIN_SQ = {1: (0.0, 0.5, 1.0), 2: (0.0, 0.25, 0.75, 1.0)}


def _sin_sq(j: int, n: int) -> float:
    """Fractional pulse position sin^2(j*pi/(2n+2)), exact at the endpoints."""
    if j == 0:
        return 0.0
    if j == n + 1:
        return 1.0
    if n in _DYADIC_SIN_SQ:
        return _DYADIC_SIN_SQ[n][j]
    s = math.sin(math.pi * j / (2 * n + 2))
    return s * s


def _steps(n: int) -> np.ndarray:
    """Uhrig step lengths s_n[j] - s_n[j-1] for j = 1..n+1, with s_n = ``_sin_sq``.

    Each is sin(k h) sin(h) with h = pi/(2n+2) and k = min(2j-1, 2n+3-2j).
    The reflected argument stays in (0, pi/2], which keeps each step within
    5 ulp of its exact value; for n <= 2 the dyadic table gives the steps
    exactly.
    """
    if n <= max(_DYADIC_SIN_SQ):
        return np.diff([_sin_sq(j, n) for j in range(n + 2)])
    h = math.pi / (2 * n + 2)
    k = np.arange(1, 2 * n + 2, 2)
    return np.sin(np.minimum(k, 2 * n + 2 - k) * h) * math.sin(h)


#: The largest number of finest intervals a schedule may have, the product of
#: N_l + 1 over its levels.  Building a schedule takes about 300 bytes per
#: interval (``sequence --qdd 999 999``, just under the limit, peaked at
#: 329 MB), and each order alone may reach 10^4: (10^4, 10^4) would make 10^8.
_MAX_INTERVALS = 10**6


def _check_size(orders: tuple[int, ...]) -> None:
    """Reject nesting ``orders`` whose schedule has more than ``_MAX_INTERVALS``."""
    count = math.prod(n + 1 for n in orders)
    if count > _MAX_INTERVALS:
        raise ValueError(
            f"orders {orders} make a schedule of {count} intervals, more than {_MAX_INTERVALS}"
        )


def _validate_orders(orders: Iterable) -> tuple[int, ...]:
    """The one check of nesting orders: each an integral, non-bool value >= 0.

    Returns them as a tuple of ints.
    """
    orders = tuple(orders)
    for n in orders:
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"orders must be integers >= 0, got {n!r}")
    return tuple(int(n) for n in orders)


@dataclass(frozen=True)
class NestingGrid:
    """The finest intervals of a nested schedule, by index.

    Level l of order N_l cuts each interval of level l + 1 (the outermost
    level cuts [0, 1]) at the fractions s[j] = sin^2(j pi/(2N_l + 2)),
    j = 0..N_l + 1, by a (1 - f) + b f, which returns a and b verbatim at
    f = 0 and 1.  So a finest interval is indexed by (i_L, ..., i_1), where
    i_l = 1..N_l + 1 is its place in its level-l block.  Inside a block the
    cuts rise strictly with j, so the intervals lie in the lexicographic
    order of their indices, outermost most significant, and an interval whose
    inner indices are all last ends bit for bit where its parent ends.  A
    level fires its N'_l = N_l + N_l mod 2 pulses at cuts j = 1..N'_l of each
    block, the last at the block's end when N_l is odd.  N'_l is even, so a
    level's switching sign on an interval is (-1)^(i_l - 1).

    ``index[l - 1]`` holds each interval's i_l; ``ends`` its end time, by the
    cut formula applied level by level, outermost first; ``lengths`` the
    product of its levels' Uhrig steps ``_steps(N_l)[i_l - 1]``, outermost
    factor first.  ``orders`` are innermost (level 1) first.
    """

    orders: tuple[int, ...]
    index: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray

    @property
    def signs(self) -> np.ndarray:
        """Per level, its switching sign (-1)^(i_l - 1) on each interval."""
        return 1 - 2 * ((self.index - 1) % 2)


def nesting_grid(orders: Iterable[int]) -> NestingGrid:
    """The ``NestingGrid`` of per-level ``orders``, innermost (level 1) first."""
    orders = _validate_orders(orders)
    _check_size(orders)
    starts, ends, lengths = np.zeros(1), np.ones(1), np.ones(1)
    for n in reversed(orders):
        f = np.array([_sin_sq(j, n) for j in range(n + 2)])
        cuts = starts[:, None] * (1 - f) + ends[:, None] * f
        starts, ends = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        lengths = np.outer(lengths, _steps(n)).ravel()
    index = np.indices([n + 1 for n in reversed(orders)]).reshape(len(orders), -1)
    return NestingGrid(orders, index[::-1] + 1, ends, lengths)


@dataclass(frozen=True)
class PulseEvent:
    """One ideal (instantaneous) pi pulse.

    Attributes
    ----------
    time : float
        Fractional time in (0, 1].
    axis : str
        "x" or "z".
    qubit : int
        0-based system qubit the pulse acts on.
    level : int
        1-based nesting level the pulse belongs to.
    """

    time: float
    axis: str
    qubit: int
    level: int


def _axis_qubit(level: int) -> tuple[str, int]:
    if level % 2:
        return "z", (level + 1) // 2 - 1
    return "x", level // 2 - 1


@dataclass(frozen=True)
class PulseSchedule:
    """The nested pulse sequence of ``orders`` on [0, 1].

    ``orders`` are the per-level orders, innermost (level 1) first, two per
    protected qubit.  A schedule is its orders: ``events`` are derived from
    them, not stored, so no schedule holds pulses other than its orders'.
    """

    orders: tuple[int, ...]
    qubit_count: int

    def __post_init__(self) -> None:
        orders = _validate_orders(self.orders)
        _check_size(orders)
        object.__setattr__(self, "orders", orders)
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        if len(orders) != 2 * self.qubit_count:
            raise ValueError(
                f"expected {2 * self.qubit_count} per-level orders for "
                f"{self.qubit_count} qubit(s), got {len(orders)}"
            )

    @cached_property
    def events(self) -> tuple[PulseEvent, ...]:
        """The pulses, sorted by (time, level), built on first read.

        They are read off ``nesting_grid``: at each interval's end fire the
        levels whose lower indices are all last (their blocks close there)
        and whose own index i_l is at most N'_l.  Ties in time are ordered
        inner level first, which is the order coincident pulses are applied in.
        """
        grid = nesting_grid(self.orders)
        n = np.array(self.orders)[:, None]
        last = grid.index == n + 1
        closed = np.vstack([np.ones_like(last[:1]), np.logical_and.accumulate(last[:-1])])
        fires = closed & (grid.index <= _effective_order(n))
        cells, levels = np.nonzero(fires.T)
        return tuple(
            PulseEvent(time, *_axis_qubit(level), level)
            for time, level in zip(grid.ends[cells].tolist(), (levels + 1).tolist())
        )


def udd_offsets(n: int) -> tuple[float, ...]:
    """Pulse times of a single Uhrig layer of order ``n``.

    Returns ``N' = n + n mod 2`` strictly increasing times in (0, 1]; for odd
    ``n`` the last entry is exactly 1.0 (the appended frame-closing pulse).
    """
    (n,) = _validate_orders([n])
    return tuple(_sin_sq(j, n) for j in range(1, _effective_order(n) + 1))


def nudd_schedule(orders: Sequence[int], qubit_count: int) -> PulseSchedule:
    """Build the nested multi-qubit schedule for ``2*qubit_count`` levels.

    Parameters
    ----------
    orders : sequence of int
        Requested order per level, innermost (level 1) first.  Must have
        length ``2*qubit_count``.
    qubit_count : int
        Number of protected system qubits (m >= 1).
    """
    return PulseSchedule(orders, qubit_count)


def qdd_schedule(n1: int, n2: int) -> PulseSchedule:
    """Single-qubit quadratic schedule: order-``n1`` z layer inside order-``n2`` x layer."""
    return nudd_schedule([n1, n2], 1)


@dataclass(frozen=True)
class SwitchingProfile:
    """Piecewise-constant +/-1 switching function on [0, 1].

    ``signs[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the value at
    s = 1 is the last sign (right-continuous convention, closed at the end).
    """

    breakpoints: tuple[float, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        bp, sg = self.breakpoints, self.signs
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0.0 and end at 1.0")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(sg) != len(bp) - 1:
            raise ValueError("need exactly one sign per interval")
        if any(s not in (-1, 1) for s in sg):
            raise ValueError("signs must be +1 or -1")

    def value(self, s) -> int:
        """Sign at fractional time ``s`` in [0, 1]."""
        if not 0.0 <= s <= 1.0:
            raise ValueError("s must lie in [0, 1]")
        idx = bisect.bisect_right(self.breakpoints, s) - 1
        return self.signs[min(idx, len(self.signs) - 1)]


def _switching_nudd(
    schedule: PulseSchedule,
) -> dict[tuple[int, tuple[int, int]], SwitchingProfile]:
    """Per-qubit switching functions of a nested schedule.

    Returns a map keyed by ``(qubit, mu)`` where ``mu`` is the single-qubit
    index pair: (0,0) identity, (1,0) flips at the qubit's z-pulse level,
    (0,1) flips at its x-pulse level, (1,1) their product.  Each is the
    product of its levels' sign rows of ``nesting_grid``, broken at every
    interval end where one of those rows flips; so a flip at time 1, which
    closes the toggling frame, is no breakpoint, and the product keeps a
    breakpoint where both levels flip at once.
    """
    grid = nesting_grid(schedule.orders)
    signs = grid.signs
    out: dict[tuple[int, tuple[int, int]], SwitchingProfile] = {}
    for q in range(schedule.qubit_count):
        # qubit q's z pulses sit at level 2q+1, its x pulses at level 2q+2
        rows = signs[2 * q : 2 * q + 2]
        for mu in ((0, 0), (1, 0), (0, 1), (1, 1)):
            picked = rows[np.array(mu, dtype=bool)]
            flips = np.flatnonzero((picked[:, 1:] != picked[:, :-1]).any(axis=0))
            sign = picked.prod(axis=0)[np.r_[0, flips + 1]]
            out[(q, mu)] = SwitchingProfile(
                (0.0, *grid.ends[flips].tolist(), 1.0), tuple(sign.tolist())
            )
    return out


def switching_qdd(n1: int, n2: int) -> dict[str, SwitchingProfile]:
    """The four toggling-frame switching functions of the quadratic sequence.

    Keys "0", "x", "y", "z": f_0 is identically +1, f_x flips at the inner
    z pulses, f_z flips at the outer x pulses, and f_y = f_x * f_z.
    """
    per_qubit = _switching_nudd(qdd_schedule(n1, n2))
    return {_MU_LABELS[pair]: per_qubit[(0, pair)] for pair in _MU_LABELS}
