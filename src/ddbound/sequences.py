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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "PulseEvent",
    "PulseSchedule",
    "SwitchingProfile",
    "udd_offsets",
    "qdd_schedule",
    "nudd_schedule",
    "effective_order",
    "switching_qdd",
    "switching_nudd",
    "MU_LABELS",
]

#: Pauli label for each single-qubit index pair (z-flip parity, x-flip parity).
MU_LABELS: Mapping[tuple[int, int], str] = {
    (0, 0): "0",
    (1, 0): "x",
    (1, 1): "y",
    (0, 1): "z",
}


def effective_order(n: int) -> int:
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


def _nested_pulse_times(orders: Sequence[int]) -> list[tuple[float, int]]:
    """Recursively place pulses for nested Uhrig layers; ``orders[i-1]`` is level i.

    Interval endpoints are hit exactly: cut points use the convex combination
    ``a*(1-f) + b*f`` which returns ``a`` and ``b`` verbatim at f = 0, 1, so an
    appended inner pulse lands bit-identical to its parent boundary.
    """
    events: list[tuple[float, int]] = []

    def recurse(level: int, a: float, b: float) -> None:
        n = orders[level - 1]
        fracs = [_sin_sq(j, n) for j in range(n + 2)]
        cuts = [a * (1 - f) + b * f for f in fracs]
        for j in range(1, effective_order(n) + 1):
            events.append((cuts[j], level))
        if level > 1:
            for j in range(1, n + 2):
                recurse(level - 1, cuts[j - 1], cuts[j])

    recurse(len(orders), 0.0, 1.0)
    return events


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


@dataclass(frozen=True)
class PulseSchedule:
    """Complete pulse sequence on [0, 1], sorted by (time, level).

    ``orders`` are the requested per-level orders.  Ties in time are ordered
    inner level first, which is the order coincident pulses are applied in.
    """

    events: tuple[PulseEvent, ...]
    orders: tuple[int, ...]
    qubit_count: int


def _axis_qubit(level: int) -> tuple[str, int]:
    if level % 2:
        return "z", (level + 1) // 2 - 1
    return "x", level // 2 - 1


def _validate_orders(orders: Sequence[int]) -> tuple[int, ...]:
    out = []
    for n in orders:
        if not isinstance(n, (int,)) or isinstance(n, bool) or n < 0:
            raise ValueError(f"sequence orders must be integers >= 0, got {n!r}")
        out.append(int(n))
    return tuple(out)


def udd_offsets(n: int) -> tuple[float, ...]:
    """Pulse times of a single Uhrig layer of order ``n``.

    Returns ``N' = n + n mod 2`` strictly increasing times in (0, 1]; for odd
    ``n`` the last entry is exactly 1.0 (the appended frame-closing pulse).
    """
    (n,) = _validate_orders([n])
    return tuple(_sin_sq(j, n) for j in range(1, effective_order(n) + 1))


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
    orders = _validate_orders(orders)
    if qubit_count < 1:
        raise ValueError("qubit_count must be >= 1")
    if len(orders) != 2 * qubit_count:
        raise ValueError(
            f"expected {2 * qubit_count} per-level orders for {qubit_count} qubit(s), "
            f"got {len(orders)}"
        )
    events = []
    for time, level in _nested_pulse_times(orders):
        axis, qubit = _axis_qubit(level)
        events.append(PulseEvent(time, axis, qubit, level))
    events.sort(key=lambda e: (e.time, e.level))
    return PulseSchedule(
        events=tuple(events),
        orders=orders,
        qubit_count=qubit_count,
    )


def qdd_schedule(n1: int, n2: int) -> PulseSchedule:
    """Single-qubit quadratic schedule: order-``n1`` z layer inside order-``n2`` x layer."""
    return nudd_schedule([n1, n2], 1)


@dataclass(frozen=True)
class SwitchingProfile:
    """Piecewise-constant +/-1 switching function on [0, 1].

    ``signs[i]`` holds on ``[breakpoints[i], breakpoints[i+1])``; the value at
    s = 1 is the last sign (right-continuous convention, closed at the end).
    Breakpoints are floats, and every operation here only compares them:
    coincident pulse times are bit-identical (see ``_nested_pulse_times``), so
    exact equality matches them.
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

    @classmethod
    def trivial(cls) -> "SwitchingProfile":
        """Identically +1."""
        return cls((0.0, 1.0), (1,))

    @classmethod
    def from_flip_times(cls, times: Iterable[float]) -> "SwitchingProfile":
        """Profile starting at +1 that flips at each time in (0, 1)."""
        ts = tuple(times)
        if any(not 0.0 < t < 1.0 for t in ts):
            raise ValueError("flip times must lie strictly inside (0, 1)")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("flip times must be strictly increasing")
        signs = tuple(1 - 2 * (k % 2) for k in range(len(ts) + 1))
        return cls((0.0, *ts, 1.0), signs)

    def value(self, s) -> int:
        """Sign at fractional time ``s`` in [0, 1]."""
        if not 0.0 <= s <= 1.0:
            raise ValueError("s must lie in [0, 1]")
        idx = bisect.bisect_right(self.breakpoints, s) - 1
        return self.signs[min(idx, len(self.signs) - 1)]

    def product(self, other: "SwitchingProfile") -> "SwitchingProfile":
        """Pointwise product profile on the union of breakpoints.

        One merge pass over both sorted breakpoint lists; a point present in
        both (by exact equality) appears once.  Both lists end at 1, so they
        run out together.
        """
        p, q = self.breakpoints, other.breakpoints
        merged, signs = [p[0]], []
        i = j = 0
        while i < len(self.signs):
            signs.append(self.signs[i] * other.signs[j])
            a, b = p[i + 1], q[j + 1]
            merged.append(a if a <= b else b)
            i += a <= b
            j += b <= a
        return SwitchingProfile(tuple(merged), tuple(signs))


def switching_nudd(
    schedule: PulseSchedule,
) -> dict[tuple[int, tuple[int, int]], SwitchingProfile]:
    """Per-qubit switching functions of a nested schedule.

    Returns a map keyed by ``(qubit, mu)`` where ``mu`` is the single-qubit
    index pair: (0,0) identity, (1,0) flips at the qubit's z-pulse level,
    (0,1) flips at its x-pulse level, (1,1) their product.  A pulse at time 1
    closes the toggling frame and flips nothing.
    """
    flips: dict[int, list[float]] = {}
    for e in schedule.events:
        if e.time < 1.0:
            flips.setdefault(e.level, []).append(e.time)
    out: dict[tuple[int, tuple[int, int]], SwitchingProfile] = {}
    for q in range(schedule.qubit_count):
        # qubit q's z pulses sit at level 2q+1, its x pulses at level 2q+2
        f_x, f_z = (
            SwitchingProfile.from_flip_times(sorted(flips.get(level, ())))
            for level in (2 * q + 1, 2 * q + 2)
        )
        out[(q, (0, 0))] = SwitchingProfile.trivial()
        out[(q, (1, 0))] = f_x
        out[(q, (0, 1))] = f_z
        out[(q, (1, 1))] = f_x.product(f_z)
    return out


def switching_qdd(n1: int, n2: int) -> dict[str, SwitchingProfile]:
    """The four toggling-frame switching functions of the quadratic sequence.

    Keys "0", "x", "y", "z": f_0 is identically +1, f_x flips at the inner
    z pulses, f_z flips at the outer x pulses, and f_y = f_x * f_z.
    """
    per_qubit = switching_nudd(qdd_schedule(n1, n2))
    return {MU_LABELS[pair]: per_qubit[(0, pair)] for pair in MU_LABELS}
