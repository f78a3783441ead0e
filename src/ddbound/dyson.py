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
pass over the intervals, in exact arithmetic.

A word's error channel is fixed by the parities of its x/y/z letter counts:
its sector j = 4 p_x + 2 p_y + p_z is the XOR of one code per letter, and
``qdd_bounds.CASE_OF_CHANNEL`` maps sectors to channels.  A sequence's claimed
suppression order for a channel is certified by showing every word of that
channel up to the order integrates to zero; ``verify_orders`` reads the
sectors of a whole signature level at once and reduces each channel's values
with array operations.

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

from .qdd_bounds import CASE_OF_CHANNEL, DecouplingOrders, decoupling_orders
from .sequences import (
    _DYADIC_SIN_SQ,
    MU_LABELS,
    SwitchingProfile,
    _nested_pulse_times,
    _sin_sq,
    _switching_profiles,
)

__all__ = [
    "LETTERS",
    "QddProfiles",
    "qdd_profiles",
    "signature",
    "word_integral",
    "verify_orders",
    "OrderCertification",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_ZERO_TOL",
    "DEFAULT_WITNESS_TOL",
]

LETTERS = ("0", "x", "y", "z")

DEFAULT_MAX_DEPTH = 6
DEFAULT_ZERO_TOL = 1e-25
DEFAULT_WITNESS_TOL = 1e-12
DEFAULT_DPS = 50

#: Sector code of each letter of ``LETTERS``; a word's sector
#: j = 4 p_x + 2 p_y + p_z is the XOR of its letters' codes.
_LETTER_SECTOR = (0, 4, 2, 1)

#: Error channel of each sector; equal parities (sectors 0 and 7) give the identity.
_CHANNEL_OF_SECTOR = tuple(
    next((ch for ch, pair in CASE_OF_CHANNEL.items() if j in pair), "identity")
    for j in range(8)
)


def _digits(word: Sequence[str]) -> list[int]:
    """The word's letters as indices into ``LETTERS``."""
    for a in word:
        if a not in LETTERS:
            raise ValueError(f"invalid letter {a!r}; expected one of {LETTERS}")
    return [LETTERS.index(a) for a in word]


def _word_index(word: Sequence[str]) -> int:
    """Index of a word in its signature level; ``_index_word`` inverts it."""
    return int(np.ravel_multi_index(_digits(word), (4,) * len(word)))


def _index_word(index: int, n: int) -> str:
    return "".join(LETTERS[d] for d in np.unravel_index(index, (4,) * n))


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
    channels: Mapping[str, SwitchingProfile]
    zero: object
    one: object

    def precision(self):
        """Context for arithmetic on this backend: ``DEFAULT_DPS`` digits for mp."""
        if self.backend == "mp":
            return mp.workdps(DEFAULT_DPS)
        return contextlib.nullcontext()


def qdd_profiles(n1: int, n2: int, backend: str = "auto") -> QddProfiles:
    """Build exact-arithmetic switching functions for the quadratic sequence.

    ``backend="auto"`` picks exact rationals when both orders are <= 2 and
    50-digit floats otherwise.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("orders must be >= 0")
    if backend == "auto":
        backend = "rational" if max(n1, n2) <= 2 else "mp"
    if backend == "rational":
        zero, one = Fraction(0), Fraction(1)
        events = _nested_pulse_times((n1, n2), _sin_sq_rational, zero, one)
    elif backend == "mp":
        with mp.workdps(DEFAULT_DPS):
            zero, one = mp.mpf(0), mp.mpf(1)
            events = _nested_pulse_times((n1, n2), _sin_sq_mp, zero, one)
    else:
        raise ValueError("backend must be 'rational', 'mp', or 'auto'")
    per_mu = _switching_profiles(events, 1, zero, one)
    return QddProfiles(
        backend=backend,
        channels={label: per_mu[(0, mu)] for mu, label in MU_LABELS.items()},
        zero=zero,
        one=one,
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


def word_integral(word: Sequence[str], profiles: QddProfiles):
    """Exact nested integral of a word's switching-function product.

    The first letter is innermost (acts earliest).  Returns a ``Fraction``
    (rational backend) or an ``mpmath.mpf``.  Words longer than
    ``DEFAULT_MAX_DEPTH`` are rejected: the value is read from ``signature``,
    which computes all 4^n words of the word's length.
    """
    word = tuple(word)
    if not 1 <= len(word) <= DEFAULT_MAX_DEPTH:
        raise ValueError(f"word length must be in 1..{DEFAULT_MAX_DEPTH}")
    index = _word_index(word)
    return signature(profiles, len(word))[len(word)][index]


@dataclass(frozen=True)
class OrderCertification:
    """Result of exhaustively checking word integrals against claimed orders.

    ``rows`` carries one entry per (channel, word length) with the maximum
    absolute integral over that class; classes at or below the channel's
    claimed order are ``expected_zero`` and any nonzero value there lands in
    ``violations``.  At length d+1 a channel's first clearly nonzero word is
    kept as a saturation ``witness`` ("found" / "inconclusive" /
    "not-checked") when it exceeds ``witness_tol``, which is always
    ``DEFAULT_WITNESS_TOL``.
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


def verify_orders(
    n1: int,
    n2: int,
    n_max: int,
    backend: str = "auto",
    mode: str = "analytic",
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> OrderCertification:
    """Certify claimed suppression orders by exhaustive word enumeration.

    Computes all words up to length ``n_max`` with ``signature`` and checks
    that every error-channel word at or below the channel's claimed order
    integrates to zero (exactly, or below ``zero_tol`` on the mp backend).
    Violations are listed in depth-first word order; a row's ``max_word`` and
    a witness are the first word of largest magnitude in that order, kept
    when it exceeds ``DEFAULT_WITNESS_TOL``.  Absence of a nonzero witness at
    length d+1 is reported as "inconclusive", never as failure.  ``zero_tol``
    must be finite and >= 0.
    """
    if not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError(f"zero_tol must be finite and >= 0, got {zero_tol!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > DEFAULT_MAX_DEPTH:
        raise ValueError(
            f"n_max={n_max} exceeds max depth {DEFAULT_MAX_DEPTH} (4^n words explode)"
        )
    profiles = qdd_profiles(n1, n2, backend)
    orders = decoupling_orders(n1, n2, mode)
    d_of = {"x": orders.d_x, "y": orders.d_y, "z": orders.d_z}
    exact = profiles.backend == "rational"
    levels = signature(profiles, n_max)

    rows: list[dict] = []
    violations: list[dict] = []
    witness: dict[str, dict | None] = dict.fromkeys(d_of)
    sectors = np.zeros(1, dtype=np.int8)
    with profiles.precision():
        for n in range(1, n_max + 1):
            sectors = (sectors[:, None] ^ np.array(_LETTER_SECTOR, np.int8)).ravel()
            channels = np.array(_CHANNEL_OF_SECTOR)[sectors]
            values = levels[n]
            abs_f = np.abs(values).astype(float)
            for ch, d in d_of.items():
                idx = np.flatnonzero(channels == ch)
                best = idx[np.argmax(abs_f[idx])]
                top = float(abs_f[best])
                if n <= d:
                    nonzero = values[idx] != 0 if exact else abs_f[idx] > zero_tol
                    violations += (
                        {
                            "word": _index_word(i, n),
                            "channel": ch,
                            "n": n,
                            "value": str(values[i]),
                            "abs": float(abs_f[i]),
                        }
                        for i in idx[nonzero]
                    )
                elif n == d + 1 and top > DEFAULT_WITNESS_TOL:
                    witness[ch] = {
                        "word": _index_word(best, n),
                        "abs": top,
                        "value": str(values[best]),
                    }
                rows.append(
                    {
                        "channel": ch,
                        "n": n,
                        "expected_zero": n <= d,
                        "words": len(idx),
                        "max_abs": top,
                        "max_word": _index_word(best, n) if top > 0 else None,
                        "witness": witness[ch] if n == d + 1 else None,
                    }
                )
    # depth-first order of words is string order, since "0" < "x" < "y" < "z"
    violations.sort(key=lambda v: v["word"])

    status = {
        ch: "not-checked" if n_max <= d else "found" if witness[ch] else "inconclusive"
        for ch, d in d_of.items()
    }
    return OrderCertification(
        n1=n1,
        n2=n2,
        backend=profiles.backend,
        mode=mode,
        n_max=n_max,
        zero_tol=zero_tol,
        witness_tol=DEFAULT_WITNESS_TOL,
        orders=orders,
        rows=tuple(rows),
        witness_status=status,
        violations=tuple(violations),
        certified=not violations,
    )
