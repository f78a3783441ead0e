"""Exact nested integrals of switching-function products, and order certification.

Every term of the time-ordered expansion of the toggling-frame evolution is
indexed by a word over the letters {0, x, y, z}; its scalar coefficient is the
nested integral

    f_word = int_0^1 ds_n f_{a_n}(s_n) int_0^{s_n} ds_{n-1} f_{a_{n-1}} ... ,

with the first letter innermost.  These are the iterated integrals of the
path X(t) = int_0^t (1, f_x, f_y, f_z)(s) ds, i.e. its signature.  X is
piecewise linear between the merged x/z switching times, and a straight
segment with increment v has signature exp(v) = sum_k v^(x)k / k!, so Chen's
identity S(0, b) = S(0, a) (x) exp(v) yields every word up to depth n in one
pass over the intervals, in exact arithmetic.  A word's error channel is fixed
by the parities of its x/y/z letter counts; a sequence's claimed suppression
order for a channel is certified by showing every word of that channel up to
the order integrates to zero.

Two arithmetic backends: exact ``Fraction`` rationals whenever every
breakpoint is rational (inner/outer orders <= 2), and 50-digit ``mpmath``
otherwise ("zero" then means below a threshold, default 1e-25).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import mpmath as mp
import numpy as np

from .qdd_bounds import DecouplingOrders, decoupling_orders
from .sequences import _DYADIC_SIN_SQ, SwitchingProfile, _nested_pulse_times, _sin_sq

__all__ = [
    "LETTERS",
    "Word",
    "word_parities",
    "word_channel",
    "QddProfiles",
    "qdd_profiles",
    "signature",
    "word_integral",
    "verify_orders",
    "OrderCertification",
    "parity_class_counts",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_ZERO_TOL",
    "DEFAULT_WITNESS_TOL",
]

LETTERS = ("0", "x", "y", "z")
Word = tuple[str, ...]

DEFAULT_MAX_DEPTH = 6
DEFAULT_ZERO_TOL = 1e-25
DEFAULT_WITNESS_TOL = 1e-12
DEFAULT_DPS = 50

_CHANNEL_OF_PARITY = {
    (0, 0, 0): "identity",
    (0, 0, 1): "z",
    (0, 1, 0): "y",
    (0, 1, 1): "x",
    (1, 0, 0): "x",
    (1, 0, 1): "y",
    (1, 1, 0): "z",
    (1, 1, 1): "identity",
}


def word_parities(word: Sequence[str]) -> tuple[int, int, int]:
    """Letter-count parities (p_x, p_y, p_z); the letter '0' never counts."""
    for a in word:
        if a not in LETTERS:
            raise ValueError(f"invalid letter {a!r}; expected one of {LETTERS}")
    return (
        sum(1 for a in word if a == "x") % 2,
        sum(1 for a in word if a == "y") % 2,
        sum(1 for a in word if a == "z") % 2,
    )


def word_channel(word: Sequence[str]) -> str:
    """Error channel ('identity', 'x', 'y', 'z') a word contributes to.

    Determined by the parity triple alone: equal parities give the identity;
    otherwise the unique Pauli whose conjugation signature matches.
    """
    return _CHANNEL_OF_PARITY[word_parities(word)]


def parity_class_counts(n: int) -> dict[str, int]:
    """Number of length-n words over the four letters mapping to each channel."""
    counts = {(0, 0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int, int], int] = {}
        for par, c in counts.items():
            for flip in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
                key = tuple(p ^ f for p, f in zip(par, flip))
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    out = {"identity": 0, "x": 0, "y": 0, "z": 0}
    for par, c in counts.items():
        out[_CHANNEL_OF_PARITY[par]] += c
    return out


def _sin_sq_rational(j: int, n: int) -> Fraction:
    # the float table's positions are dyadic, so Fraction() converts them exactly
    if n > max(_DYADIC_SIN_SQ):
        raise ValueError(f"rational backend supports orders <= 2 only (got order {n})")
    return Fraction(_sin_sq(j, n))


def _sin_sq_mp(j: int, n: int):
    if j == 0:
        return mp.mpf(0)
    if j == n + 1:
        return mp.mpf(1)
    return mp.sin(mp.pi * j / (2 * n + 2)) ** 2


@dataclass(frozen=True)
class QddProfiles:
    """The four switching functions of a quadratic sequence, exact breakpoints."""

    backend: str
    n1: int
    n2: int
    channels: Mapping[str, SwitchingProfile]
    zero: object
    one: object
    dps: int = DEFAULT_DPS

    def precision(self):
        """Context for arithmetic on this backend: ``dps`` digits for mp."""
        if self.backend == "mp":
            return mp.workdps(self.dps)
        return contextlib.nullcontext()


def qdd_profiles(
    n1: int,
    n2: int,
    backend: str = "auto",
    dps: int = DEFAULT_DPS,
) -> QddProfiles:
    """Build exact-arithmetic switching functions for the quadratic sequence.

    ``backend="auto"`` picks exact rationals when both orders are <= 2 and
    50-digit floats otherwise.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("orders must be >= 0")
    if backend == "auto":
        backend = "rational" if max(n1, n2) <= 2 else "mp"
    if backend == "rational":
        sin_sq = _sin_sq_rational
        zero, one = Fraction(0), Fraction(1)
        events = _nested_pulse_times((n1, n2), sin_sq, zero, one)
    elif backend == "mp":
        sin_sq = _sin_sq_mp
        with mp.workdps(dps):
            zero, one = mp.mpf(0), mp.mpf(1)
            events = _nested_pulse_times((n1, n2), sin_sq, zero, one)
    else:
        raise ValueError("backend must be 'rational', 'mp', or 'auto'")
    z_flips = sorted(t for t, level in events if level == 1 and t < one)
    x_flips = sorted(t for t, level in events if level == 2 and t < one)
    f_x = SwitchingProfile.from_flip_times(z_flips, zero, one)
    f_z = SwitchingProfile.from_flip_times(x_flips, zero, one)
    return QddProfiles(
        backend=backend,
        n1=n1,
        n2=n2,
        channels={
            "0": SwitchingProfile.trivial(zero, one),
            "x": f_x,
            "y": f_x.product(f_z),
            "z": f_z,
        },
        zero=zero,
        one=one,
        dps=dps,
    )


def _times(x: np.ndarray, c, signs: Sequence[int]) -> np.ndarray:
    """Tensor product x (x) (c * signs) for a +-1 sign vector, first factor major."""
    y = x * c
    out = np.empty((len(y), len(signs)), dtype=object)
    for col, s in enumerate(signs):
        out[:, col] = y if s > 0 else -y
    return out.ravel()


def signature(profiles: QddProfiles, depth: int) -> list[np.ndarray]:
    """Every word integral up to length ``depth``, by Chen's identity.

    ``levels[k][i]`` is the integral of the length-k word whose letters, as
    indices into ``LETTERS``, are the base-4 digits of ``i`` with the first
    (innermost) letter most significant; ``levels[0]`` is ``[1]``.  Each
    interval of the merged x/z breakpoints multiplies in exp(v) with
    v = h * (1, s_x, s_y, s_z); level k is updated from the top down by the
    Horner form S_k += ((S_0 (x) v/k + S_1) (x) v/(k-1) + ... + S_{k-1}) (x) v.
    Entries are ``Fraction`` or ``mpf`` matching the backend.
    """
    f_y = profiles.channels["y"]
    # f_y's breakpoints hold all of f_x's, so f_x * f_y = f_z on f_y's intervals
    z_signs = profiles.channels["x"].product(f_y).signs
    with profiles.precision():
        levels = [np.array([profiles.one], dtype=object)]
        levels += [np.full(4**k, profiles.zero, dtype=object) for k in range(1, depth + 1)]
        bp = f_y.breakpoints
        for a, b, s_y, s_z in zip(bp, bp[1:], f_y.signs, z_signs):
            h = b - a
            signs = (1, s_y * s_z, s_y, s_z)
            for k in range(depth, 0, -1):
                acc = _times(levels[0], h / k, signs)
                for j in range(1, k):
                    acc = _times(acc + levels[j], h / (k - j), signs)
                levels[k] += acc
    return levels


def word_integral(
    word: Sequence[str],
    profiles: QddProfiles,
    max_depth: int = DEFAULT_MAX_DEPTH,
):
    """Exact nested integral of a word's switching-function product.

    The first letter is innermost (acts earliest).  Returns a ``Fraction``
    (rational backend) or an ``mpmath.mpf``.  Words longer than ``max_depth``
    are rejected: the value is read from ``signature``, which computes all
    4^n words of the word's length.
    """
    word = tuple(word)
    if not 1 <= len(word) <= max_depth:
        raise ValueError(f"word length must be in 1..{max_depth}")
    index = 0
    for a in word:
        if a not in LETTERS:
            raise ValueError(f"invalid letter {a!r}")
        index = 4 * index + LETTERS.index(a)
    return signature(profiles, len(word))[len(word)][index]


@dataclass(frozen=True)
class OrderCertification:
    """Result of exhaustively checking word integrals against claimed orders.

    ``rows`` carries one entry per (channel, word length) with the maximum
    absolute integral over that class; classes at or below the channel's
    claimed order are ``expected_zero`` and any nonzero value there lands in
    ``violations``.  At length d+1 a channel's first clearly nonzero word is
    kept as a saturation ``witness`` ("found" / "inconclusive" /
    "not-checked").
    """

    n1: int
    n2: int
    backend: str
    mode: str
    n_max: int
    zero_tol: float
    witness_tol: float
    orders: DecouplingOrders
    rows: tuple[dict, ...]
    witness_status: Mapping[str, str]
    violations: tuple[dict, ...]
    certified: bool

    def to_jsonable(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "backend": self.backend,
            "mode": self.mode,
            "n_max": self.n_max,
            "zero_tol": self.zero_tol,
            "witness_tol": self.witness_tol,
            "orders": {
                "d_x": self.orders.d_x,
                "d_y": self.orders.d_y,
                "d_z": self.orders.d_z,
            },
            "rows": list(self.rows),
            "witness_status": dict(self.witness_status),
            "violations": list(self.violations),
            "certified": self.certified,
        }


def verify_orders(
    n1: int,
    n2: int,
    n_max: int,
    backend: str = "auto",
    mode: str = "analytic",
    zero_tol: float = DEFAULT_ZERO_TOL,
    witness_tol: float = DEFAULT_WITNESS_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    dps: int = DEFAULT_DPS,
) -> OrderCertification:
    """Certify claimed suppression orders by exhaustive word enumeration.

    Computes all words up to length ``n_max`` with ``signature``, visits them
    depth-first, and checks that every error-channel word at or below the
    channel's claimed order integrates to zero (exactly, or below
    ``zero_tol`` on the mp backend).  Absence of a nonzero witness at length
    d+1 is reported as "inconclusive", never as failure.  Both tolerances
    must be finite and >= 0.
    """
    for name, tol in (("zero_tol", zero_tol), ("witness_tol", witness_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > max_depth:
        raise ValueError(
            f"n_max={n_max} exceeds max depth {max_depth} (4^n words explode)"
        )
    profiles = qdd_profiles(n1, n2, backend, dps)
    orders = decoupling_orders(n1, n2, mode)
    d_of = {"x": orders.d_x, "y": orders.d_y, "z": orders.d_z}
    exact = profiles.backend == "rational"

    stats: dict[tuple[str, int], dict] = {}
    witness: dict[str, dict | None] = {"x": None, "y": None, "z": None}
    violations: list[dict] = []

    def record(word: Word, value) -> None:
        channel = word_channel(word)
        if channel == "identity":
            return
        n = len(word)
        a = abs(value)
        a_float = float(a)
        key = (channel, n)
        row = stats.setdefault(
            key,
            {
                "channel": channel,
                "n": n,
                "expected_zero": n <= d_of[channel],
                "words": 0,
                "max_abs": 0.0,
                "max_word": None,
            },
        )
        row["words"] += 1
        if a_float > row["max_abs"]:
            row["max_abs"] = a_float
            row["max_word"] = "".join(word)
        if row["expected_zero"]:
            nonzero = (value != 0) if exact else (a_float > zero_tol)
            if nonzero:
                violations.append(
                    {
                        "word": "".join(word),
                        "channel": channel,
                        "n": n,
                        "value": str(value),
                        "abs": a_float,
                    }
                )
        elif n == d_of[channel] + 1 and a_float > witness_tol:
            best = witness[channel]
            if best is None or a_float > best["abs"]:
                witness[channel] = {
                    "word": "".join(word),
                    "abs": a_float,
                    "value": str(value),
                }

    levels = signature(profiles, n_max)

    def walk(word: Word, index: int) -> None:
        for i, letter in enumerate(LETTERS):
            new_word = word + (letter,)
            new_index = 4 * index + i
            record(new_word, levels[len(new_word)][new_index])
            if len(new_word) < n_max:
                walk(new_word, new_index)

    with profiles.precision():
        walk((), 0)

    status = {}
    for ch, d in d_of.items():
        if n_max <= d:
            status[ch] = "not-checked"
        elif witness[ch] is not None:
            status[ch] = "found"
        else:
            status[ch] = "inconclusive"
    rows = tuple(
        dict(stats[k], witness=witness[k[0]] if k[1] == d_of[k[0]] + 1 else None)
        for k in sorted(stats, key=lambda t: (t[1], t[0]))
    )
    return OrderCertification(
        n1=n1,
        n2=n2,
        backend=profiles.backend,
        mode=mode,
        n_max=n_max,
        zero_tol=zero_tol,
        witness_tol=witness_tol,
        orders=orders,
        rows=rows,
        witness_status=status,
        violations=tuple(violations),
        certified=not violations,
    )
