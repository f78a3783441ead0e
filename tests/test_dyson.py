"""Nested-integral oracle tests.

Frozen reference values below were derived by hand from the switching
patterns and confirmed exactly rational by the Fraction backend, e.g. for
inner/outer orders (1, 1) the two-letter x-channel integral over the ordered
simplex is

    int_0^1 ds2 f_0(s2) int_0^s2 f_x(s1) ds1 = 1/8

with f_x = +1 on [0, 1/4) u [1/2, 3/4) and -1 elsewhere.

The certifier's residue engine is checked against ``_reference_levels``, the
same Chen/Horner recurrence run word by word in exact objects: ``Fraction``
for orders <= 2 and 50-digit mpmath otherwise.  The reference builds its own
breakpoints, by sorting and merging the exact inner and outer pulse times
(``_exact_merge``), so it shares no code with the certifier's index grid.
"""

import bisect
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddbound.dyson
from ddbound.cli import main
from ddbound.dyson import (
    _CHANNEL_OF_SECTOR,
    _LETTER_SECTOR,
    _LETTERS,
    _read_level,
    _reduce,
    signature,
    verify_orders,
)
from ddbound.qdd_bounds import DecouplingOrders, _case_parities
from ddbound.sequences import _steps, _switching_nudd, nesting_grid, nudd_schedule, switching_qdd

from closed_forms import word_integral


def _channel_by_counts(word):
    """Channel of a word from its letter counts alone: the letters' Pauli product
    up to phase, whose X part counts x and y letters and whose Z part y and z."""
    x_part = (word.count("x") + word.count("y")) % 2
    z_part = (word.count("y") + word.count("z")) % 2
    return {(0, 0): "identity", (1, 0): "x", (1, 1): "y", (0, 1): "z"}[(x_part, z_part)]


def _sector(word):
    """A word's sector: the XOR of its letters' codes in the certifier's table."""
    j = 0
    for a in word:
        j ^= _LETTER_SECTOR[_LETTERS.index(a)]
    return j


def word_parities(word):
    return _case_parities(_sector(word))


def word_channel(word):
    return _CHANNEL_OF_SECTOR[_sector(word)]


def parity_class_counts(n):
    """Number of length-n words mapping to each channel, by the sector table."""
    counts = dict.fromkeys(("identity", "x", "y", "z"), 0)
    for word in product(_LETTERS, repeat=n):
        counts[word_channel(word)] += 1
    return counts


def test_word_parities_and_channel():
    assert word_parities(("x",)) == (1, 0, 0)
    assert word_parities(("x", "y")) == (1, 1, 0)
    assert word_parities(("x", "x", "0")) == (0, 0, 0)
    assert word_channel(("x",)) == "x"
    assert word_channel(("x", "y")) == "z"
    assert word_channel(("x", "y", "z")) == "identity"
    assert word_channel(("0", "0")) == "identity"
    assert word_channel(("z", "0", "z", "y")) == "y"


@settings(max_examples=300, deadline=None)
@given(word=st.text("0xyz", max_size=8))
def test_word_channel_matches_letter_counts(word):
    assert word_parities(word) == tuple(word.count(a) % 2 for a in "xyz")
    assert word_channel(word) == _channel_by_counts(word)
    assert word_channel(tuple(word)) == word_channel(word)


def test_parity_class_counts():
    assert parity_class_counts(1) == {"identity": 1, "x": 1, "y": 1, "z": 1}
    assert parity_class_counts(2) == {"identity": 4, "x": 4, "y": 4, "z": 4}
    for n in range(1, 7):
        counts = parity_class_counts(n)
        assert sum(counts.values()) == 4**n
        # the three error classes stay equinumerous by symmetry
        assert counts["x"] == counts["y"] == counts["z"]


def test_rational_first_order_vanishing():
    grid = nesting_grid((1, 1))
    for letter in ("x", "y", "z"):
        assert word_integral((letter,), grid, "rational") == 0
    assert word_integral(("0",), grid, "rational") == 1


def test_rational_exact_values_11():
    grid = nesting_grid((1, 1))
    assert word_integral(("x", "0"), grid, "rational") == Fraction(1, 8)
    assert word_integral(("0", "x"), grid, "rational") == Fraction(-1, 8)
    assert word_integral(("0", "0", "0"), grid, "rational") == Fraction(1, 6)
    assert word_integral(("x", "z"), grid, "rational") == 0
    assert word_integral(("z", "x"), grid, "rational") == 0
    assert word_integral(("y", "0"), grid, "rational") == 0
    assert word_integral(("0", "y"), grid, "rational") == 0
    assert word_integral(("0", "z"), grid, "rational") == Fraction(-1, 4)


def test_fubini_symmetrization():
    """I(a, b) + I(b, a) equals the product of the two single integrals."""
    for n1, n2 in [(1, 1), (2, 2), (1, 2)]:
        grid = nesting_grid((n1, n2))
        singles = {c: word_integral((c,), grid, "rational") for c in "0xyz"}
        for a, b in product("0xyz", repeat=2):
            lhs = sum(word_integral(w, grid, "rational") for w in ((a, b), (b, a)))
            assert lhs == singles[a] * singles[b]


@cache
def _signature(n1, n2):
    return signature(nesting_grid((n1, n2)), 5)


def _shuffles(u, v):
    """Every interleaving of u and v, with multiplicity."""
    if not u or not v:
        return [u + v]
    return [u[0] + w for w in _shuffles(u[1:], v)] + [
        v[0] + w for w in _shuffles(u, v[1:])
    ]


@st.composite
def _word_pairs(draw):
    u = draw(st.text("0xyz", min_size=1, max_size=4))
    v = draw(st.text("0xyz", min_size=1, max_size=5 - len(u)))
    return u, v


def _column(word):
    index = 0
    for a in word:
        index = 4 * index + _LETTERS.index(a)
    return index


@settings(max_examples=300, deadline=None)
@given(n1=st.integers(0, 6), n2=st.integers(0, 6), words=_word_pairs())
def test_shuffle_identity(n1, n2, words):
    """I(u) I(v) = sum over the shuffles w of u and v of I(w), exactly in
    every residue row.

    Holds for the iterated integrals of any path, so a wrong Horner factor
    in the signature update breaks it (e.g. I(x)^2 = 2 I(xx) needs v^2/2).
    """
    u, v = words
    sig = _signature(n1, n2)

    def residue(word, r):
        return int(sig.levels[len(word)][r, _column(word)])

    for r, p in enumerate(sig.primes):
        rhs = sum(residue(w, r) for w in _shuffles(u, v))
        assert (residue(u, r) * residue(v, r) - rhs) % p == 0


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(-(2**52) + 1, 2**52 - 1),
    p=st.sampled_from([67108859, 67108837, 1048573, 8191, 7]),
)
def test_reduce_is_exact(x, p):
    """The residue reduction keeps x mod p and lands within p/2 + 2 of zero."""
    got = _reduce(np.array([[float(x)]]), np.array([[float(p)]]), np.array([[1.0 / p]]))
    r = int(got[0, 0])
    assert r == got[0, 0]
    assert (x - r) % p == 0
    assert abs(r) <= p / 2 + 2


def test_rational_exact_values_depth4():
    """Frozen exact values of words that differ from their reversals, so a
    signature multiplied in the wrong order (reversed time) would fail."""
    cases = {
        (1, 1): {"0zzx": Fraction(-7, 1536), "yz00": Fraction(31, 1536)},
        (1, 2): {"x0z0": Fraction(-145, 24576), "zx00": Fraction(33, 8192),
                 "yz00": Fraction(117, 8192)},
        (2, 1): {"0y0x": Fraction(1, 768), "0x0z": Fraction(1, 512)},
        (2, 2): {"0zzx": Fraction(5, 2048), "0x0z": Fraction(-3, 2048)},
    }
    for (n1, n2), words in cases.items():
        grid = nesting_grid((n1, n2))
        for word, value in words.items():
            assert word_integral(word, grid, "rational") == value


def _exact_sin_sq(orders):
    """s_n[j] = sin^2(j pi/(2n+2)) for j = 0..n+1 at each order n: ``Fraction``
    when every order is <= 2, else mpmath at the working precision."""
    if max(orders) <= 2:
        table = ("0 1", "0 1/2 1", "0 1/4 3/4 1")
        return [[Fraction(t) for t in table[n].split()] for n in orders]
    return [
        [mp.mpf(0), *(mp.sin(mp.pi * j / (2 * n + 2)) ** 2 for j in range(1, n + 1)), mp.mpf(1)]
        for n in orders
    ]


def _cut(a, b, f):
    """The point a (1 - f) + b f of [a, b], which is b itself at f = 1."""
    return a * (1 - f) + b * f


@cache
def _exact_merge(orders):
    """Merged breakpoints of the nested schedule of ``orders``, each level's
    sign on each merged interval, and each level's pulse times, all exact:
    ``Fraction`` for orders <= 2, 50-digit mpmath otherwise.  The pulses are
    placed by recursion over the blocks, not by index.  A level's sign flips
    at its pulses, a pulse at time 1 flips nothing, and coincident times are
    matched by equality."""
    with mp.workdps(50):
        s = _exact_sin_sq(orders)
        pulses = [[] for _ in orders]

        def place(level, a, b):
            n = orders[level - 1]
            cuts = [_cut(a, b, f) for f in s[level - 1]]
            pulses[level - 1] += cuts[1 : n + n % 2 + 1]
            for j in range(1, n + 2) if level > 1 else ():
                place(level - 1, cuts[j - 1], cuts[j])

        place(len(orders), s[-1][0], s[-1][-1])
        bp = sorted({s[-1][0], *(t for times in pulses for t in times), s[-1][-1]})
        flips = [sorted(t for t in times if t < 1) for times in pulses]
        signs = [[(-1) ** bisect.bisect_right(f, t) for t in bp[:-1]] for f in flips]
    return bp, signs, pulses


def _exact_end(s, column):
    """Exact end of the grid interval whose level indices are ``column``,
    innermost first: the cuts of each level, outermost first."""
    a, b = s[-1][0], s[-1][-1]
    for f, i in reversed(list(zip(s, column))):
        a, b = _cut(a, b, f[i - 1]), _cut(a, b, f[i])
    return b


@st.composite
def _nested_orders(draw):
    """Per-level orders of m = 1 (each 0..12) or m = 2 (each 0..6) qubits."""
    m = draw(st.integers(1, 2))
    return tuple(draw(st.lists(st.integers(0, 12 // m), min_size=2 * m, max_size=2 * m)))


@settings(max_examples=100, deadline=None)
@given(orders=_nested_orders())
def test_index_grid_is_the_exact_merge(orders):
    """The nesting grid is the exact merge of every level's pulse times, in
    order, and its float ends rise strictly to 1.  Each sign row is the parity
    of its level's flips, and ``_switching_nudd``'s profile of that level.  The
    events are the exact pulses in (time, level) order.  Each length is
    within (11 L - 1) ulp of its 50-digit value, for L levels, exact when
    every order is <= 2: a step within 5 ulp is within 10 u relatively
    (u = 2^-53), each of the L - 1 products adds u, and one ulp of x exceeds
    u |x|."""
    bp, signs, pulses = _exact_merge(orders)
    grid = nesting_grid(orders)
    schedule = nudd_schedule(orders, len(orders) // 2)
    sw = _switching_nudd(schedule)
    with mp.workdps(50):
        s = _exact_sin_sq(orders)
        assert [_exact_end(s, column) for column in grid.index.T.tolist()] == bp[1:]
        exact = np.array([float(b - a) for a, b in zip(bp, bp[1:])])
        mids = [float((a + b) / 2) for a, b in zip(bp, bp[1:])]
        float_of = dict(zip(bp[1:], grid.ends.tolist()))
        want = sorted((t, level) for level, times in enumerate(pulses, 1) for t in times)
    assert (np.diff(grid.ends) > 0).all() and grid.ends[-1] == 1.0
    for level, row in enumerate(signs, 1):
        assert grid.signs[level - 1].tolist() == row
        profile = sw[((level - 1) // 2, ((1, 0), (0, 1))[(level - 1) % 2])]
        assert [profile.value(t) for t in mids] == row
    assert [(e.time, e.level) for e in schedule.events] == [(float_of[t], lv) for t, lv in want]
    ulps = np.abs(grid.lengths - exact) / np.spacing(exact)
    assert ulps.max() <= (0 if max(orders) <= 2 else 11 * len(orders) - 1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 400))
def test_steps_within_five_ulp(n):
    """Each Uhrig step is within 5 ulp of its 50-digit value, exact for n <= 2:
    the input error that ``_value_error`` assumes."""
    with mp.workdps(50):
        exact = [mp.sin(j * mp.pi / (2 * n + 2)) ** 2 for j in range(n + 2)]
        exact = np.array([float(b - a) for a, b in zip(exact, exact[1:])])
    ulps = np.abs(_steps(n) - exact) / np.spacing(exact)
    assert ulps.max() <= (0 if n <= 2 else 5)


def test_single_integrals_match_switching_profiles():
    for n1, n2 in [(2, 3), (1, 4)]:
        grid = nesting_grid((n1, n2))
        sw = switching_qdd(n1, n2)
        for c in "xyz":
            got = word_integral((c,), grid, "mp")
            bp, signs = sw[c].breakpoints, sw[c].signs
            moment = math.fsum(s * (b - a) for s, a, b in zip(signs, bp, bp[1:]))
            assert got == pytest.approx(moment, abs=1e-14)


def test_backend_selection_and_limits():
    """"auto" reports exact rationals when both orders are <= 2; the backend
    changes how values are reported, never the proof's primes."""
    assert verify_orders(2, 2, 1).backend == "rational"
    assert verify_orders(3, 3, 1).backend == "mp"
    assert verify_orders(1, 2, 1, backend="auto").backend == "rational"
    mp_cert = verify_orders(2, 2, 3, backend="mp")
    assert mp_cert.proof["primes"] == verify_orders(2, 2, 3).proof["primes"]
    with pytest.raises(ValueError, match=r"orders <= 2 only \(got 3, 1\)"):
        verify_orders(3, 1, 1, backend="rational")
    with pytest.raises(ValueError, match="backend must be 'rational', 'mp', or 'auto'"):
        verify_orders(1, 1, 1, backend="fixed")


@pytest.mark.parametrize("orders", [(2,), (1, 1, 1), (1, 1, 1, 1)])
def test_signature_needs_two_levels(orders):
    with pytest.raises(ValueError, match="two-level grid"):
        signature(nesting_grid(orders), 1)


def test_signature_blocks_agree(monkeypatch):
    """Building the interval coefficients a few intervals at a time, as large
    orders do, gives the same signature bit for bit."""
    grid = nesting_grid((3, 4))
    whole = signature(grid, 3)
    monkeypatch.setattr(ddbound.dyson, "_BLOCK", 3)
    for a, b in zip(whole.levels, signature(grid, 3).levels, strict=True):
        np.testing.assert_array_equal(a, b)


def test_rational_mp_agreement():
    """All 340 words of length <= 4 for (2, 2): the float row, which the mp
    backend reports, agrees with the exact values that the rational backend
    lifts from the residue rows, and the two read every word alike as proved
    zero or proved nonzero."""
    sig = signature(nesting_grid((2, 2)), 4)
    assert sig.proved
    assert sum(level.shape[1] for level in sig.levels[1:]) == 340
    for k in range(1, 5):
        exact, approx = _read_level("rational", sig, k), _read_level("mp", sig, k)
        np.testing.assert_array_equal(exact[0], approx[0])
        for i, m in enumerate(sig.levels[k][-1]):
            assert abs(exact[2](i) - Fraction(m)) < 1e-16


def test_word_validation():
    grid = nesting_grid((1, 1))
    with pytest.raises(ValueError):
        word_integral((), grid, "rational")
    with pytest.raises(ValueError):
        word_integral(("q",), grid, "rational")
    with pytest.raises(ValueError):
        word_integral(("0",) * 7, grid, "rational")  # beyond the depth cap


def test_verify_orders_11():
    cert = verify_orders(1, 1, 3)
    assert cert.certified
    assert cert.witness_status == {"x": "found", "y": "found", "z": "found"}
    stats = {(r["channel"], r["n"]): r for r in cert.rows}
    # suppression orders (1, 2, 1): all length-1 words vanish, y also at 2
    for ch in "xyz":
        assert stats[(ch, 1)]["max_abs"] == 0.0
    assert stats[("y", 2)]["max_abs"] == 0.0
    # first nonzero layers, exactly rational
    assert stats[("x", 2)]["max_abs"] == 0.125
    assert stats[("z", 2)]["max_abs"] == 0.25
    assert stats[("y", 3)]["max_abs"] == 0.0625


def test_verify_orders_22_witness_values():
    cert = verify_orders(2, 2, 3)
    assert cert.certified
    stats = {(r["channel"], r["n"]): r for r in cert.rows}
    for ch in "xyz":
        for n in (1, 2):
            assert stats[(ch, n)]["max_abs"] == 0.0
    assert stats[("x", 3)]["max_abs"] == 0.009765625  # 5/512 at word 0x0
    assert stats[("y", 3)]["max_abs"] == 0.005859375  # 3/512
    assert stats[("z", 3)]["max_abs"] == 0.0625  # 1/16 at word 0z0
    assert stats[("x", 3)]["max_word"] == "0x0"
    assert stats[("z", 3)]["max_word"] == "0z0"


def test_verify_orders_24_z_suppression():
    """Outer order 4 pushes z suppression to length 4; first break at 5."""
    cert = verify_orders(2, 4, 4)
    assert cert.certified
    z_rows = {r["n"]: r["max_abs"] for r in cert.rows if r["channel"] == "z"}
    for n in (1, 2, 3, 4):
        assert z_rows[n] <= 1e-20
    witness = word_integral(("z", "0", "0", "0", "0"), nesting_grid((2, 4)), "mp")
    assert witness == pytest.approx(1 / 6144, rel=1e-12)


def test_verify_orders_footnote_14():
    """Odd inner order 1 with outer order 4: z vanishing extends to length 3,
    confirming the stronger odd-order z claim for this pair exactly."""
    cert = verify_orders(1, 4, 4, mode="numeric-footnote")
    assert cert.certified
    z_rows = {r["n"]: r for r in cert.rows if r["channel"] == "z"}
    for n in (1, 2, 3):
        assert z_rows[n]["expected_zero"]
        assert z_rows[n]["max_abs"] <= 1e-20
    assert not z_rows[4]["expected_zero"]
    assert z_rows[4]["max_abs"] == pytest.approx(8.40865570034986e-05, rel=1e-9)


def test_verify_orders_respects_nmax():
    cert = verify_orders(2, 2, 2)
    assert cert.certified
    # d + 1 = 3 was never reached, so no witness can be claimed
    assert set(cert.witness_status.values()) == {"not-checked"}


def test_certification_jsonable():
    cert = verify_orders(1, 1, 2)
    doc = json.loads(json.dumps(asdict(cert)))
    assert doc["certified"] is True
    assert doc["proof"]["status"] == "proved"
    assert doc["orders"] == {"d_x": 1, "d_y": 2, "d_z": 1}
    assert isinstance(doc["rows"], list)


def test_mp_zero_floor():
    """mp-backend words proved zero read exactly 0.0, not roundoff."""
    grid = nesting_grid((3, 3))
    for word in product("0xyz", repeat=2):
        if word.count("0") == 1:  # first-order error words, all suppressed
            assert word_integral(word, grid, "mp") == 0.0


def test_proof_field():
    """The primes are 1 mod L = lcm(2 N1 + 2, 2 N2 + 2), below 2^26, and their
    product beats 2 (16 M)^(n_max deg) with deg = phi(L)/2."""
    cert = verify_orders(3, 4, 4)
    proof = cert.proof
    assert proof["status"] == "proved"
    assert all(p % 40 == 1 and p < 2**26 for p in proof["primes"])
    m = len(nesting_grid((3, 4)).lengths)
    bound = 2 * (16 * m) ** (4 * 8)  # phi(40) / 2 = 8
    assert math.prod(proof["primes"]) > bound
    assert math.prod(proof["primes"][:-1]) <= bound  # no prime more than needed
    assert proof["log2_bound"] == round(math.log2(bound), 3)
    assert proof["log2_product"] > proof["log2_bound"]


# Explicit ids, fixed at the names the cases had when their digests were
# first recorded, so that re-recording a digest keeps the test's name.  The
# digests were re-recorded when residue proofs replaced the zero threshold:
# every certificate trades zero_tol/witness_tol for a proof field, and mp
# certificates report proved zeros as 0.0 and float64 value strings; the
# rational ones are otherwise unchanged.  The two mp digests were re-recorded
# again when the interval lengths became float64 products of sin steps
# instead of differences of 50-digit breakpoints: magnitudes move in the last
# bits (at most 4e-15 relative here), and among words of exactly equal
# magnitude a row's max_word or witness may be another word.  They were
# re-recorded once more when mp proofs began to state ``value_error``, the
# a-priori error bound of the float64 values per word length; nothing else in
# those certificates changed.
@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        pytest.param(
            (2, 2, 4), {"backend": "rational"},
            "6b3f3814265099bb0107e744f6bc0954f271d3a2133e8c50f93bf982cce0e06a",
            id="args0-kwargs0-bdc7a35e3a43e53b883231f35c5685c13cf593d413e7792d5d9fa5c604f06cd6",
        ),
        pytest.param(
            (1, 1, 5), {"backend": "rational"},
            "cf2d54086c04ec982865562b00fcad67300ee61b652f31072aefe33990d40ede",
            id="args1-kwargs1-06a09c993063a67969e64be71392909ea037a5c424becaa7f294bbd10829493e",
        ),
        pytest.param(
            (3, 3, 4), {"backend": "mp"},
            "5e15972245156620e9a9412cb7837308e6fc9a91444622eb96e9a28191d31329",
            id="args2-kwargs2-494d889b0b92206a1337645cbf3c4ed01cf98db6723a272dbb87874829d7aa25",
        ),
        pytest.param(
            (1, 4, 4), {"mode": "numeric-footnote"},
            "ac3859167bd753d5b9a03dc1e1ef1ea02ee1aa4e7a83657bf11c385da2842ac8",
            id="args3-kwargs3-b877e3131d86893a39c68aac9964d9323c631da1e0abef0d9d51a7058ee35a1d",
        ),
    ],
)
def test_certificate_json_frozen(args, kwargs, digest):
    """Whole certificates, rows, witnesses and value strings included, are frozen."""
    blob = json.dumps(asdict(verify_orders(*args, **kwargs)), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _depth_first(n_max, prefix=""):
    for letter in "0xyz":
        yield prefix + letter
        if len(prefix) + 1 < n_max:
            yield from _depth_first(n_max, prefix + letter)


@cache
def _reference_levels(n1, n2, depth):
    """Every word integral up to ``depth`` as (nonzero, value) pairs per level,
    from the Chen/Horner recurrence on object arrays over ``_exact_merge``'s
    intervals: ``Fraction`` for orders <= 2, 50-digit mpmath otherwise, where
    "nonzero" means above 1e-25 (the true zeros sit near 1e-50, the smallest
    nonzero words far above 1e-25)."""
    exact = max(n1, n2) <= 2
    bp, (x_signs, z_signs), _ = _exact_merge((n1, n2))
    with mp.workdps(50):
        levels = [np.array([1], dtype=object)]
        levels += [np.zeros(4**k, dtype=object) for k in range(1, depth + 1)]
        for a, b, s_x, s_z in zip(bp, bp[1:], x_signs, z_signs):
            h = b - a
            signs = (1, s_x, s_x * s_z, s_z)

            def times(x, c):
                return np.multiply.outer(x * c, signs).ravel()

            for k in range(depth, 0, -1):
                acc = times(levels[0], h / k)
                for j in range(1, k):
                    acc = times(acc + levels[j], h / (k - j))
                levels[k] = levels[k] + acc
        return [
            (
                np.array([v != 0 if exact else abs(v) > 1e-25 for v in level]),
                [v if exact else float(v) for v in level],
            )
            for level in levels
        ]


def _reference_certificate(n1, n2, n_max, d_of):
    """Rows and violations from a depth-first walk over the reference words,
    each word's channel from its letter counts; maxima and witnesses keep the
    first word of largest magnitude, and a zero word counts as 0."""
    levels = _reference_levels(n1, n2, n_max)
    rows, violations, witness = {}, [], {}
    for word in _depth_first(n_max):
        ch, n = _channel_by_counts(word), len(word)
        if ch == "identity":
            continue
        nonzero, values = levels[n]
        i = _column(word)
        value = values[i] if nonzero[i] else 0
        a = float(abs(value))
        row = rows.setdefault((n, ch), {
            "channel": ch, "n": n, "expected_zero": n <= d_of[ch], "words": 0,
            "max_abs": 0.0, "max_word": None,
        })
        row["words"] += 1
        if a > row["max_abs"]:
            row["max_abs"], row["max_word"] = a, word
        if row["expected_zero"] and nonzero[i]:
            violations.append(
                {"word": word, "channel": ch, "n": n, "value": str(value), "abs": a}
            )
        elif n == d_of[ch] + 1 and nonzero[i]:
            if ch not in witness or a > witness[ch]["abs"]:
                witness[ch] = {"word": word, "abs": a, "value": str(value)}
    return tuple(
        dict(row, witness=witness.get(ch) if n == d_of[ch] + 1 else None)
        for (n, ch), row in sorted(rows.items())
    ), tuple(violations)


def _assert_word_record(got, levels):
    """A reported word's value and magnitude are the reference's to roundoff."""
    ref = float(levels[len(got["word"])][1][_column(got["word"])])
    assert float(Fraction(got["value"])) == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert got["abs"] == pytest.approx(abs(ref), rel=1e-12, abs=1e-15)


def _assert_matches_reference(cert, rows, violations, levels):
    """The certificate's violations are the reference's words, in order; its
    rows agree field by field, magnitudes to roundoff.  Among words of equal
    magnitude float64 may pick another, so a row's max_word or witness need
    only carry the row's largest reference magnitude."""
    assert [v["word"] for v in cert.violations] == [v["word"] for v in violations]
    for got in cert.violations:
        _assert_word_record(got, levels)
    assert len(cert.rows) == len(rows)
    for got, want in zip(cert.rows, rows):
        for key in ("channel", "n", "expected_zero", "words"):
            assert got[key] == want[key]
        assert got["max_abs"] == pytest.approx(want["max_abs"], rel=1e-12, abs=1e-15)
        assert (got["max_word"] is None) == (want["max_word"] is None)
        if got["max_word"] is not None:
            _assert_word_record(
                {"word": got["max_word"], "abs": got["max_abs"],
                 "value": str(levels[got["n"]][1][_column(got["max_word"])])},
                levels,
            )
        assert (got["witness"] is None) == (want["witness"] is None)
        if got["witness"] is not None:
            _assert_word_record(got["witness"], levels)
            assert got["witness"]["abs"] == pytest.approx(want["witness"]["abs"], rel=1e-12)


#: The benchmark's certify list, (1, 4) in numeric-footnote mode, and (10, 10)
#: at depth 5.
ZERO_PATTERN_CASES = [
    (1, 1, 4), (1, 2, 4), (2, 1, 4), (2, 2, 3), (2, 2, 4), (3, 3, 4), (3, 4, 4),
    (4, 4, 4), (10, 10, 3), (1, 4, 4), (10, 10, 5),
]


@pytest.mark.parametrize("n1, n2, n_max", ZERO_PATTERN_CASES)
def test_zero_pattern_matches_reference(n1, n2, n_max):
    """Every level's residue zero pattern is the reference's, word for word,
    and the float row is the reference's values to roundoff, within the
    a-priori error bound that mp certificates state."""
    grid = nesting_grid((n1, n2))
    sig = signature(grid, n_max)
    assert sig.proved
    error = ddbound.dyson._value_error(len(grid.lengths), n_max)
    for k, (nonzero, values) in enumerate(_reference_levels(n1, n2, n_max)):
        if k == 0:
            continue
        np.testing.assert_array_equal((sig.levels[k][:-1] != 0).any(axis=0), nonzero)
        ref = np.array(values, dtype=float)
        np.testing.assert_allclose(sig.levels[k][-1], ref, rtol=0, atol=1e-14)
        # the reference, read as a double, is within half an ulp of its 50 digits
        assert (np.abs(sig.levels[k][-1] - ref) <= error[k - 1] + np.spacing(np.abs(ref))).all()
    mode = "numeric-footnote" if (n1, n2) == (1, 4) else "analytic"
    cert = verify_orders(n1, n2, n_max, mode=mode)
    assert cert.certified
    assert cert.proof.get("value_error") == (error if cert.backend == "mp" else None)


_PROOF_PRIMES = ddbound.dyson._proof_primes


def _one_prime_short(modulus, bound):
    """The primes the proof needs, less the last one."""
    return _PROOF_PRIMES(modulus, bound)[:-1]


def _overclaim(monkeypatch):
    """Claim one order more than proven in every channel."""
    proven = ddbound.dyson.decoupling_orders

    def overclaimed(n1, n2, mode="analytic"):
        return DecouplingOrders(*(d + 1 for d in proven(n1, n2, mode).as_tuple()))

    monkeypatch.setattr(ddbound.dyson, "decoupling_orders", overclaimed)


@pytest.mark.parametrize(
    "n1, n2, n_max, backend",
    [(2, 2, 4, "rational"), (1, 1, 4, "rational"), (3, 3, 4, "mp"), (1, 4, 4, "mp")],
)
def test_overclaimed_orders_violations_match_reference(n1, n2, n_max, backend, monkeypatch):
    """Claim one order more than proven: the violations, in depth-first word
    order, and the rows match a word-by-word reference, exactly on the
    rational backend."""
    _overclaim(monkeypatch)
    cert = verify_orders(n1, n2, n_max, backend=backend)
    d_of = dict(zip("xyz", cert.orders.as_tuple()))
    rows, violations = _reference_certificate(n1, n2, n_max, d_of)
    assert violations and not cert.certified
    assert cert.proof["status"] == "proved"
    if backend == "rational":
        assert cert.violations == violations
        assert cert.rows == rows
    _assert_matches_reference(cert, rows, violations, _reference_levels(n1, n2, n_max))


@pytest.mark.parametrize(
    "n1, n2, n_max, backend", [(2, 2, 4, "rational"), (3, 3, 4, "mp"), (1, 4, 4, "mp")]
)
def test_overclaimed_orders_one_prime_short(n1, n2, n_max, backend, monkeypatch):
    """One prime short of the proof, the words with a nonzero residue still
    show every violation of an over-claimed order, with float64 values."""
    _overclaim(monkeypatch)
    monkeypatch.setattr(ddbound.dyson, "_proof_primes", _one_prime_short)
    cert = verify_orders(n1, n2, n_max, backend=backend)
    d_of = dict(zip("xyz", cert.orders.as_tuple()))
    _, violations = _reference_certificate(n1, n2, n_max, d_of)
    assert cert.proof["status"] == "not proved" and cert.proof["primes"]
    assert violations and not cert.certified
    assert [v["word"] for v in cert.violations] == [v["word"] for v in violations]
    for got in cert.violations:
        _assert_word_record(got, _reference_levels(n1, n2, n_max))


@pytest.mark.parametrize("n1, n2", [(2, 2), (3, 3)])
def test_too_few_primes_is_not_proved(n1, n2, monkeypatch, capsys):
    """A prime product below the bound proves nothing: the certificate reads
    "not proved", is not certified, and ``verify orders`` exits 3."""
    monkeypatch.setattr(ddbound.dyson, "_proof_primes", _one_prime_short)
    cert = verify_orders(n1, n2, 4)
    assert cert.proof["status"] == "not proved"
    assert cert.proof["log2_product"] < cert.proof["log2_bound"]
    assert not cert.certified and not cert.violations
    code = main(["verify", "orders", "--qdd", str(n1), str(n2), "--nmax", "4"])
    doc = json.loads(capsys.readouterr().out)["certification"]
    assert code == 3
    assert doc["certified"] is False
    assert doc["proof"]["status"] == "not proved"


def test_cli_import_leaves_mpmath_out(tmp_path):
    """No command imports mpmath or scipy: one op of each, on both certifier
    backends, runs in a fresh process that then holds neither module."""
    src = Path(ddbound.dyson.__file__).resolve().parents[1]
    norms = {"0": 1.0, "x": 0.3, "y": 0.8, "z": 0.05}
    simulate = tmp_path / "simulate.json"
    simulate.write_text(json.dumps(
        {"kind": "qdd", "orders": [2, 2], "T": 0.05, "bath": {"dim": 2, "seed": 1, "norms": norms}}
    ))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(
        {"kind": "qdd", "orders": [[1, 1]], "bath_dim": [2], "eps": [0.01], "eta": [0.1],
         "seeds": 1, "master_seed": 0}
    ))
    argvs = [
        ["sequence", "--qdd", "2", "2"],
        ["bounds", "qdd", "--n1", "2", "--n2", "2"],
        ["bounds", "nudd", "--m", "2", "--dmin", "2"],
        ["simulate", "--config", str(simulate)],
        ["verify", "orders", "--qdd", "2", "2", "--nmax", "3", "--backend", "rational"],
        ["verify", "orders", "--qdd", "3", "3", "--nmax", "3", "--backend", "mp"],
        ["verify", "bound", "--qdd", "1", "1", "--eps", "0.05", "--seeds", "1", "--bath-dim", "2"],
        ["sweep", "--config", str(sweep)],
    ]
    code = (
        "import sys\n"
        "from ddbound.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = {'mpmath', 'scipy'} & set(sys.modules)\n"
        "assert not loaded, f'{loaded} loaded'\n"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
