"""Nested integrals of switching-function products, and proof-grade order certification.

Every term of the time-ordered expansion of the toggling-frame evolution is
indexed by a word over the letters {0, x, y, z}; its scalar coefficient is the
nested integral

    f_word = int_0^1 ds_n f_{a_n}(s_n) int_0^{s_n} ds_{n-1} f_{a_{n-1}} ... ,

with the first letter innermost.  These are the iterated integrals of the
path X(t) = int_0^t (1, f_x, f_y, f_z)(s) ds, i.e. its signature.  X is
piecewise linear between the merged x/z switching times, and a straight
segment with increment v has signature exp(v) = sum_k v^(x)k / k!, so Chen's
identity S(0, b) = S(0, a) (x) exp(v) yields every word up to depth n in one
pass over the intervals.

A word's error channel is fixed by the parities of its x/y/z letter counts:
its sector j = 4 p_x + 2 p_y + p_z is the XOR of one code per letter, and
``qdd_bounds.CASE_OF_CHANNEL`` maps sectors to channels.  A sequence's claimed
suppression order for a channel is certified by proving that every word of
that channel up to the order integrates to zero.

Residues.  Every pulse time is built from sin^2(j pi/(2n+2)) =
(2 - w^j - w^-j)/4, w a primitive (2n+2)-th root of unity, by the nested cuts
a (1 - f) + b f.  So every word integral alpha of length k lies in
K = Q(zeta_L)^+, L = lcm(2 N1 + 2, 2 N2 + 2), and 16^k k! alpha is an algebraic
integer (each nesting level divides by 4, and level k carries 1/k!).  For a
prime p = 1 (mod L), zeta_L -> g^((p-1)/L) mod p, g a generator, maps
Z[zeta_L] to F_p, so the Chen/Horner recurrence runs unchanged mod p with h/k
read as h k^-1.  ``signature`` runs it once over float64 arrays of shape
(primes + 1, 4^k): one row per prime p < 2^26, and a last row of float64
values.  Each reduction is x - rint(x/p) p, which keeps every residue within
p/2 + 2 of zero, so every product stays below 2^52 and the residue rows are
exact.  (``np.fmod`` gives the same residues at 40x the cost: glibc's fmod
loops over the quotient's bits.)

Proof (the multimodular method of von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5).  Each conjugate of a breakpoint again lies in [0, 1], so
each conjugate of 16^k k! alpha is at most (16 M)^k in magnitude, M the number
of merged intervals, and its norm at most (16 M)^(k deg), with deg = [K : Q] =
phi(L)/2, or 1 when every order is <= 2 and every breakpoint is rational.  A
nonzero alpha whose residues all vanish has a norm divisible by every prime
used.  So once the primes' product exceeds 2 (16 M)^(n deg) at depth n, a word
whose residues all vanish is zero, while a nonzero residue proves a word
nonzero whatever the product.  The factor 2 lets exact values come back as
the symmetric CRT lift of 16^k k! alpha.

Backends.  The merged breakpoints are the schedule's index grid
(``sequences.nesting_grid``), so nothing needs to order them: each interval's
end is indexed by (i, j), its signs are the grid's sign rows, and its length
is a product of two float64 sin steps.  The backend only chooses how values
are reported: ``rational`` (orders <= 2, where every pulse time is dyadic and
every length exact) reports exact ``Fraction`` values, lifted from the
residues by CRT; ``mp`` reports float64 values, and 0.0 for words proved
zero, and states an a-priori bound on their absolute error per word length
(``_value_error``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .qdd_bounds import CASE_OF_CHANNEL, DecouplingOrders, decoupling_orders
from .sequences import _DYADIC_SIN_SQ, NestingGrid, nesting_grid
from .series import gamma, round_up

__all__ = [
    "LETTERS",
    "QddProfiles",
    "Signature",
    "qdd_profiles",
    "signature",
    "word_integral",
    "verify_orders",
    "OrderCertification",
    "DEFAULT_MAX_DEPTH",
]

LETTERS = ("0", "x", "y", "z")

DEFAULT_MAX_DEPTH = 6

#: Residue rows use primes below 2^26, so the product of a residue and a sum
#: of two residues stays below 2^53, where float64 holds every integer.
_PRIME_LIMIT = 2**26

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


@dataclass(frozen=True)
class QddProfiles:
    """The merged x/z switching intervals of a quadratic sequence, by index.

    ``grid`` is the ``sequences.NestingGrid`` of the orders (N1, N2): interval
    c ends at inner pulse j of outer interval i, (j, i) = ``grid.index[:, c]``,
    at s2[i-1] + (s2[i] - s2[i-1]) s1[j] with s_n[j] = sin^2(j pi/(2n+2)).
    Its sign rows are f_x and f_z, and ``grid.lengths[c]`` is
    (s2[i] - s2[i-1]) (s1[j] - s1[j-1]) in float64.
    """

    backend: str
    grid: NestingGrid


def qdd_profiles(n1: int, n2: int, backend: str = "auto") -> QddProfiles:
    """The switching intervals of the quadratic sequence with orders (n1, n2).

    ``backend="auto"`` picks exact rationals when both orders are <= 2 and
    float64 values otherwise.
    """
    grid = nesting_grid((n1, n2))
    dyadic = max(grid.orders) <= max(_DYADIC_SIN_SQ)
    if backend == "auto":
        backend = "rational" if dyadic else "mp"
    if backend not in ("rational", "mp"):
        raise ValueError("backend must be 'rational', 'mp', or 'auto'")
    if backend == "rational" and not dyadic:
        raise ValueError(f"rational backend supports orders <= 2 only (got {n1}, {n2})")
    return QddProfiles(backend=backend, grid=grid)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    if n < 11:
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _proof_primes(modulus: int, bound: int) -> tuple[int, ...]:
    """Primes p = 1 (mod ``modulus``) below 2^26, largest first, until their
    product exceeds ``bound``."""
    primes, product = [], 1
    p = (_PRIME_LIMIT - 2) // modulus * modulus + 1
    while product <= bound:
        if p <= modulus:
            raise ValueError("the proof needs more primes than lie below 2^26")
        if _is_prime(p):
            primes.append(p)
            product *= p
        p -= modulus
    return tuple(primes)


def _root_of_unity(modulus: int, p: int) -> int:
    """A primitive ``modulus``-th root of unity mod p, for p = 1 (mod ``modulus``)."""
    factors = [q for q in range(2, modulus + 1) if modulus % q == 0 and _is_prime(q)]
    for g in range(2, p):
        zeta = pow(g, (p - 1) // modulus, p)
        if all(pow(zeta, modulus // q, p) != 1 for q in factors):
            return zeta
    raise ValueError(f"no primitive {modulus}-th root of unity mod {p}")


def _sin_sq_residues(n: int, modulus: int, p: int, zeta: int) -> list[int]:
    """sin^2(j pi/(2n+2)) = (2 - w^j - w^-j)/4 mod p for j = 0..n+1."""
    w = pow(zeta, modulus // (2 * n + 2), p)
    quarter = pow(4, -1, p)
    return [(2 - pow(w, j, p) - pow(w, -j, p)) * quarter % p for j in range(n + 2)]


@dataclass(frozen=True)
class Signature:
    """Every word integral up to a depth, mod each prime and in float64.

    ``levels[k]`` has shape (len(primes) + 1, 4**k).  Row r < len(primes)
    holds the length-k word integrals mod primes[r], as exact integers in
    (-p, p); the last row holds their float64 values.  Column i is the word
    whose letters, as indices into ``LETTERS``, are the base-4 digits of i,
    the first (innermost) letter most significant; ``levels[0]`` is all ones.
    Zeros are proved once the primes' product exceeds ``bound``.
    """

    primes: tuple[int, ...]
    bound: int
    levels: tuple[np.ndarray, ...]

    @property
    def proved(self) -> bool:
        return math.prod(self.primes) > self.bound


def _reduce(x: np.ndarray, p: np.ndarray, inv_p: np.ndarray) -> np.ndarray:
    """x - rint(x / p) p per row: exact for integers |x| < 2^52, and within
    p/2 + 2 of zero.  A row with p = inv_p = 0 (the float64 row) is kept."""
    q = np.rint(x * inv_p)
    q *= p
    return x - q


def _times(x: np.ndarray, c: np.ndarray, signs: np.ndarray, p, inv_p) -> np.ndarray:
    """Per row, the tensor product x (x) (c * signs) reduced mod the row's
    prime, first factor major; ``signs`` is a +-1 vector."""
    return (_reduce(x * c, p, inv_p)[:, :, None] * signs).reshape(len(x), -1)


#: Intervals whose coefficients are built at once, which bounds the setup's
#: memory at about rows * depth * 4 kB, whatever the orders.
_BLOCK = 512


def _coefficients(profiles: QddProfiles, s1, s2, inverses, p, inv_p):
    """Per merged interval, the (depth, rows, 1) stack of h/k for k = 1..depth:
    h k^-1 mod p in the residue rows and h/k in the float64 row, where each
    breakpoint's residue is s2[i-1] + (s2[i] - s2[i-1]) s1[j] at its grid
    index (j, i), and the start 0 is (j, i) = (0, 1).  Built a block of
    intervals at a time."""
    j, i = np.hstack([[[0], [1]], profiles.grid.index])
    lengths = profiles.grid.lengths
    ks = np.arange(1.0, inverses.shape[1] + 1)[:, None]
    for start in range(0, len(lengths), _BLOCK):
        ib, jb = i[start : start + _BLOCK + 1], j[start : start + _BLOCK + 1]
        cuts = _reduce(s2[:, ib - 1] + (s2[:, ib] - s2[:, ib - 1]) * s1[:, jb], p, inv_p)
        h = _reduce(np.diff(cuts, axis=1), p, inv_p)
        coeff = np.empty((len(h) + 1, len(ks), h.shape[1]))
        coeff[:-1] = _reduce(h[:, None, :] * inverses[:, :, None], p[:, None], inv_p[:, None])
        coeff[-1] = lengths[start : start + _BLOCK] / ks
        yield from np.ascontiguousarray(coeff.transpose(2, 1, 0))[..., None]


def signature(profiles: QddProfiles, depth: int) -> Signature:
    """Every word integral up to length ``depth``, by Chen's identity.

    Picks primes p = 1 (mod L) until their product exceeds the proof bound
    2 (16 M)^(depth deg), and maps each merged breakpoint to its residue mod p
    through its grid index.  Each interval multiplies in exp(v) with
    v = h * (1, s_x, s_y, s_z), for all rows at once; level k is updated from
    the top down by the Horner form
    S_k += ((S_0 (x) v/k + S_1) (x) v/(k-1) + ... + S_{k-1}) (x) v.
    """
    n1, n2 = profiles.grid.orders
    modulus = math.lcm(2 * n1 + 2, 2 * n2 + 2)
    if max(n1, n2) <= max(_DYADIC_SIN_SQ):
        degree = 1  # every breakpoint is rational
    else:
        degree = sum(math.gcd(a, modulus) == 1 for a in range(modulus)) // 2
    # 2 (16 M)^(depth deg): see the module docstring
    bound = 2 * (16 * len(profiles.grid.lengths)) ** (depth * degree)
    primes = _proof_primes(modulus, bound)
    s1, s2 = [], []
    for q in primes:
        zeta = _root_of_unity(modulus, q)
        s1.append(_sin_sq_residues(n1, modulus, q, zeta))
        s2.append(_sin_sq_residues(n2, modulus, q, zeta))
    s1 = np.array(s1, dtype=float).reshape(len(primes), n1 + 2)
    s2 = np.array(s2, dtype=float).reshape(len(primes), n2 + 2)
    ks = range(1, depth + 1)
    inverses = np.array([[pow(k, -1, q) for k in ks] for q in primes], dtype=float)
    inverses = inverses.reshape(len(primes), depth)
    # each row's prime and its reciprocal; 0 and 0 leave the float64 row as is
    p = np.array([*primes, 0.0]).reshape(-1, 1)
    inv_p = np.array([*(1.0 / q for q in primes), 0.0]).reshape(-1, 1)
    coeffs = _coefficients(profiles, s1, s2, inverses, p[:-1], inv_p[:-1])

    s_x, s_z = profiles.grid.signs.astype(float)
    all_signs = np.stack([np.ones_like(s_x), s_x, s_x * s_z, s_z], axis=1)

    rows = len(p)
    levels = [np.ones((rows, 1))] + [np.zeros((rows, 4**k)) for k in ks]
    for c, signs in zip(coeffs, all_signs, strict=True):
        for k in range(depth, 0, -1):
            acc = c[k - 1] * signs
            for j in range(1, k):
                acc = _times(acc + levels[j], c[k - j - 1], signs, p, inv_p)
            levels[k] = _reduce(levels[k] + acc, p, inv_p)
    return Signature(primes=primes, bound=bound, levels=tuple(levels))


def _value_error(intervals: int, depth: int) -> list[float]:
    """Bounds on the absolute error of the float64 row, per word length 1..depth.

    Higham's analysis (Accuracy and Stability of Numerical Algorithms, ch. 3):
    the float64 row is a sum of products, and each product carries at most N
    rounding factors, so its error is at most gamma_N times the same
    computation with every sign +1 and every length exact.  That computation
    is the all-"0" word, (sum h)^k / k! = 1/k!, which also bounds every
    length-k integral of +-1 switching functions.  A length-k term has k
    coefficients h/k', each a product of two sin steps within 5 ulp
    (gamma_10 each), one rounding for the product and one for the division;
    it rests in at most k levels, each of whose running sums adds at most one
    rounding per interval; and it passes at most k Horner chains of 2(k-1)
    roundings.  So N = k (M + 2k + 20) over M intervals.  Each bound is
    rounded up, which also covers products that underflow.
    """
    ks = np.arange(1, depth + 1)
    factorials = np.array([math.factorial(k) for k in ks], dtype=float)
    return round_up(gamma(ks * (intervals + 2 * ks + 20)) / factorials).tolist()


def _symmetric_crt(residues: np.ndarray, primes: Sequence[int], scale: int) -> np.ndarray:
    """Per column, the integer in (-P/2, P/2] congruent to scale * residues[r]
    mod primes[r] for every r, P the primes' product.

    Garner's mixed-radix form in int64, which holds while P < 2^62: the
    rational backend's orders <= 2 give M <= 9 merged intervals, so at most
    two primes below 2^26 beat its bound up to ``DEFAULT_MAX_DEPTH``.
    """
    x = np.zeros(residues.shape[1], dtype=np.int64)
    product = 1
    for r, p in zip(residues, primes):
        target = np.fmod(r * (scale % p), p).astype(np.int64)
        x = x + product * ((target - x) % p * pow(product, -1, p) % p)
        product *= p
    return np.where(x > product // 2, x - product, x)


def _read_level(profiles: QddProfiles, sig: Signature, k: int):
    """``(nonzero, magnitude, value)`` for the length-k words.

    ``nonzero[i]``: a residue of word i is nonzero, which proves it nonzero.
    With ``sig.proved`` every other word is zero and has magnitude 0; then
    the rational backend's ``value(i)`` is the exact ``Fraction``.  Otherwise
    ``value(i)`` and the magnitudes come from the float64 row.
    """
    residues, real = sig.levels[k][:-1], sig.levels[k][-1]
    nonzero = (residues != 0).any(axis=0)
    if sig.proved and profiles.backend == "rational":
        denom = 16**k * math.factorial(k)
        beta = _symmetric_crt(residues, sig.primes, denom)
        return nonzero, np.abs(beta) / denom, lambda i: Fraction(int(beta[i]), denom)
    known = nonzero | (not sig.proved)
    magnitude = np.where(known, np.abs(real), 0.0)
    return nonzero, magnitude, lambda i: float(real[i]) if known[i] else 0.0


def word_integral(word: Sequence[str], profiles: QddProfiles):
    """Nested integral of a word's switching-function product.

    The first letter is innermost (acts earliest).  Returns an exact
    ``Fraction`` on the rational backend and a float on the mp backend
    (0.0 for a word proved zero).  Words longer than ``DEFAULT_MAX_DEPTH`` are
    rejected: the value is read from ``signature``, which computes all 4^n
    words of the word's length.
    """
    word = tuple(word)
    if not 1 <= len(word) <= DEFAULT_MAX_DEPTH:
        raise ValueError(f"word length must be in 1..{DEFAULT_MAX_DEPTH}")
    index = _word_index(word)
    sig = signature(profiles, len(word))
    return _read_level(profiles, sig, len(word))[2](index)


@dataclass(frozen=True)
class OrderCertification:
    """Result of exhaustively checking word integrals against claimed orders.

    ``rows`` carries one entry per (channel, word length) with the maximum
    absolute integral over that class; classes at or below the channel's
    claimed order are ``expected_zero`` and any word there proved nonzero
    lands in ``violations``.  At length d+1 a channel's largest word proved
    nonzero is kept as a saturation ``witness`` ("found" / "inconclusive" /
    "not-checked").  ``proof`` names the primes used, log2 of their product
    and of the bound it must beat, and reads "proved" or "not proved"; a
    certificate that is not proved is never ``certified``.  On the mp
    backend it also gives ``value_error``: for each word length 1..n_max, a
    bound on the absolute error of every float64 value and magnitude.
    """

    n1: int
    n2: int
    backend: str
    mode: str
    n_max: int
    proof: Mapping[str, object]
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
) -> OrderCertification:
    """Certify claimed suppression orders by exhaustive word enumeration.

    Computes all words up to length ``n_max`` with ``signature`` and proves
    that every error-channel word at or below the channel's claimed order
    integrates to zero.  Violations are listed in depth-first word order; a
    row's ``max_word`` and a witness are the first word of largest magnitude
    in that order.  Absence of a nonzero word at length d+1 is reported as
    "inconclusive", never as failure.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > DEFAULT_MAX_DEPTH:
        raise ValueError(
            f"n_max={n_max} exceeds max depth {DEFAULT_MAX_DEPTH} (4^n words explode)"
        )
    profiles = qdd_profiles(n1, n2, backend)
    n1, n2 = profiles.grid.orders
    orders = decoupling_orders(n1, n2, mode)
    d_of = {"x": orders.d_x, "y": orders.d_y, "z": orders.d_z}
    sig = signature(profiles, n_max)

    rows: list[dict] = []
    violations: list[dict] = []
    witness: dict[str, dict | None] = dict.fromkeys(d_of)
    sectors = np.zeros(1, dtype=np.int8)
    for n in range(1, n_max + 1):
        sectors = (sectors[:, None] ^ np.array(_LETTER_SECTOR, np.int8)).ravel()
        channels = np.array(_CHANNEL_OF_SECTOR)[sectors]
        nonzero, magnitude, value = _read_level(profiles, sig, n)
        for ch, d in d_of.items():
            idx = np.flatnonzero(channels == ch)
            best = idx[np.argmax(magnitude[idx])]
            top = float(magnitude[best])
            proven = idx[nonzero[idx]]
            if n <= d:
                violations += (
                    {
                        "word": _index_word(i, n),
                        "channel": ch,
                        "n": n,
                        "value": str(value(i)),
                        "abs": float(magnitude[i]),
                    }
                    for i in proven
                )
            elif n == d + 1 and proven.size:
                w = proven[np.argmax(magnitude[proven])]
                witness[ch] = {
                    "word": _index_word(w, n),
                    "abs": float(magnitude[w]),
                    "value": str(value(w)),
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
    proof = {
        "primes": list(sig.primes),
        "log2_product": round(math.log2(math.prod(sig.primes)), 3),
        "log2_bound": round(math.log2(sig.bound), 3),
        "status": "proved" if sig.proved else "not proved",
    }
    if profiles.backend == "mp":
        proof["value_error"] = _value_error(len(profiles.grid.lengths), n_max)
    return OrderCertification(
        n1=n1,
        n2=n2,
        backend=profiles.backend,
        mode=mode,
        n_max=n_max,
        proof=proof,
        orders=orders,
        rows=tuple(rows),
        witness_status=status,
        violations=tuple(violations),
        certified=sig.proved and not violations,
    )
