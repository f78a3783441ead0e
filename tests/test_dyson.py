"""Exact nested-integral oracle tests.

Frozen reference values below were derived by hand from the switching
patterns and confirmed exactly rational by the Fraction backend, e.g. for
inner/outer orders (1, 1) the two-letter x-channel integral over the ordered
simplex is

    int_0^1 ds2 f_0(s2) int_0^s2 f_x(s1) ds1 = 1/8

with f_x = +1 on [0, 1/4) u [1/2, 3/4) and -1 elsewhere.
"""

import hashlib
import json
import math
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from itertools import product

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddbound.dyson
from ddbound.dyson import (
    _CHANNEL_OF_SECTOR,
    _LETTER_SECTOR,
    DEFAULT_WITNESS_TOL,
    DEFAULT_ZERO_TOL,
    LETTERS,
    OrderCertification,
    qdd_profiles,
    signature,
    verify_orders,
    word_integral,
)
from ddbound.qdd_bounds import DecouplingOrders, case_parities
from ddbound.sequences import switching_qdd


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
        j ^= _LETTER_SECTOR[LETTERS.index(a)]
    return j


def word_parities(word):
    return case_parities(_sector(word))


def word_channel(word):
    return _CHANNEL_OF_SECTOR[_sector(word)]


def parity_class_counts(n):
    """Number of length-n words mapping to each channel, by the sector table."""
    counts = dict.fromkeys(("identity", "x", "y", "z"), 0)
    for word in product(LETTERS, repeat=n):
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
    prof = qdd_profiles(1, 1, backend="rational")
    for letter in ("x", "y", "z"):
        assert word_integral((letter,), prof) == 0
    assert word_integral(("0",), prof) == 1


def test_rational_exact_values_11():
    prof = qdd_profiles(1, 1, backend="rational")
    assert word_integral(("x", "0"), prof) == Fraction(1, 8)
    assert word_integral(("0", "x"), prof) == Fraction(-1, 8)
    assert word_integral(("0", "0", "0"), prof) == Fraction(1, 6)
    assert word_integral(("x", "z"), prof) == 0
    assert word_integral(("z", "x"), prof) == 0
    assert word_integral(("y", "0"), prof) == 0
    assert word_integral(("0", "y"), prof) == 0
    assert word_integral(("0", "z"), prof) == Fraction(-1, 4)


def test_fubini_symmetrization():
    """I(a, b) + I(b, a) equals the product of the two single integrals."""
    for n1, n2 in [(1, 1), (2, 2), (1, 2)]:
        prof = qdd_profiles(n1, n2, backend="rational")
        singles = {c: word_integral((c,), prof) for c in "0xyz"}
        for a, b in product("0xyz", repeat=2):
            lhs = word_integral((a, b), prof) + word_integral((b, a), prof)
            assert lhs == singles[a] * singles[b]


@cache
def _rational_levels(n1, n2):
    return signature(qdd_profiles(n1, n2, backend="rational"), 5)


def _from_levels(levels, word):
    index = 0
    for a in word:
        index = 4 * index + LETTERS.index(a)
    return levels[len(word)][index]


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


@settings(max_examples=300, deadline=None)
@given(n1=st.integers(0, 2), n2=st.integers(0, 2), words=_word_pairs())
def test_shuffle_identity(n1, n2, words):
    """I(u) I(v) = sum over the shuffles w of u and v of I(w), exactly.

    Holds for the iterated integrals of any path, so a wrong Horner factor
    in the signature update breaks it (e.g. I(x)^2 = 2 I(xx) needs v^2/2).
    """
    u, v = words
    levels = _rational_levels(n1, n2)
    rhs = sum(_from_levels(levels, w) for w in _shuffles(u, v))
    assert _from_levels(levels, u) * _from_levels(levels, v) == rhs


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
        prof = qdd_profiles(n1, n2, backend="rational")
        for word, value in words.items():
            assert word_integral(word, prof) == value


def test_exact_profiles_merge_like_float_profiles():
    sw = switching_qdd(2, 2)
    channels = qdd_profiles(2, 2, backend="rational").channels
    for c in "0xyz":
        assert all(type(t) is Fraction for t in channels[c].breakpoints)
        assert channels[c].breakpoints == sw[c].breakpoints
        assert channels[c].signs == sw[c].signs


def test_single_integrals_match_switching_profiles():
    for n1, n2 in [(2, 3), (1, 4)]:
        prof = qdd_profiles(n1, n2)  # auto picks mp here
        sw = switching_qdd(n1, n2)
        for c in "xyz":
            got = float(word_integral((c,), prof))
            bp, signs = sw[c].breakpoints, sw[c].signs
            moment = math.fsum(s * (b - a) for s, a, b in zip(signs, bp, bp[1:]))
            assert got == pytest.approx(moment, abs=1e-14)


def test_backend_selection_and_limits():
    assert qdd_profiles(2, 2).backend == "rational"
    assert qdd_profiles(3, 3).backend == "mp"
    assert qdd_profiles(1, 2, backend="auto").backend == "rational"
    with pytest.raises(ValueError):
        qdd_profiles(3, 1, backend="rational")
    with pytest.raises(ValueError):
        qdd_profiles(1, 1, backend="fixed")


def test_rational_mp_agreement():
    """All 340 words of length <= 4 for (2, 2) agree across backends."""
    exact = signature(qdd_profiles(2, 2, backend="rational"), 4)
    approx = signature(qdd_profiles(2, 2, backend="mp"), 4)
    assert sum(len(level) for level in exact[1:]) == 340
    with mp.workdps(60):
        for lev_r, lev_m in zip(exact[1:], approx[1:]):
            for r, m in zip(lev_r, lev_m):
                assert abs(mp.mpf(r.numerator) / r.denominator - m) < 1e-40


def test_word_validation():
    prof = qdd_profiles(1, 1)
    with pytest.raises(ValueError):
        word_integral((), prof)
    with pytest.raises(ValueError):
        word_integral(("q",), prof)
    with pytest.raises(ValueError):
        word_integral(("0",) * 7, prof)  # beyond the default depth guard


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
    prof = qdd_profiles(2, 4)
    witness = word_integral(("z", "0", "0", "0", "0"), prof)
    assert float(witness) == pytest.approx(1 / 6144, rel=1e-12)


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


@pytest.mark.parametrize("name", ["zero_tol"])
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-30])
def test_verify_orders_rejects_bad_tolerances(name, tol):
    with pytest.raises(ValueError, match=name):
        verify_orders(3, 3, 2, **{name: tol})


def test_verify_orders_respects_nmax():
    cert = verify_orders(2, 2, 2)
    assert cert.certified
    # d + 1 = 3 was never reached, so no witness can be claimed
    assert set(cert.witness_status.values()) == {"not-checked"}


def test_certification_jsonable():
    cert = verify_orders(1, 1, 2)
    doc = json.loads(json.dumps(asdict(cert)))
    assert doc["certified"] is True
    assert doc["witness_tol"] == DEFAULT_WITNESS_TOL
    assert doc["orders"] == {"d_x": 1, "d_y": 2, "d_z": 1}
    assert isinstance(doc["rows"], list)


def test_mp_zero_floor():
    """mp-backend zeros sit far below the certification threshold."""
    prof = qdd_profiles(3, 3)
    val = word_integral(("x",), prof)
    assert abs(float(val)) < 1e-40


@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        ((2, 2, 4), {"backend": "rational"},
         "bdc7a35e3a43e53b883231f35c5685c13cf593d413e7792d5d9fa5c604f06cd6"),
        ((1, 1, 5), {"backend": "rational"},
         "06a09c993063a67969e64be71392909ea037a5c424becaa7f294bbd10829493e"),
        ((3, 3, 4), {"backend": "mp"},
         "494d889b0b92206a1337645cbf3c4ed01cf98db6723a272dbb87874829d7aa25"),
        ((1, 4, 4), {"mode": "numeric-footnote"},
         "b877e3131d86893a39c68aac9964d9323c631da1e0abef0d9d51a7058ee35a1d"),
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


def _reference_certificate(n1, n2, n_max, backend, d_of):
    """Rows and violations from a depth-first walk over the words, each word's
    channel from its letter counts; maxima and witnesses keep the first word
    of largest magnitude."""
    profiles = qdd_profiles(n1, n2, backend)
    levels = signature(profiles, n_max)
    exact = profiles.backend == "rational"
    rows, violations, witness = {}, [], {}
    with profiles.precision():
        for word in _depth_first(n_max):
            ch, n = _channel_by_counts(word), len(word)
            if ch == "identity":
                continue
            value = _from_levels(levels, word)
            a = float(abs(value))
            row = rows.setdefault((n, ch), {
                "channel": ch, "n": n, "expected_zero": n <= d_of[ch], "words": 0,
                "max_abs": 0.0, "max_word": None,
            })
            row["words"] += 1
            if a > row["max_abs"]:
                row["max_abs"], row["max_word"] = a, word
            if row["expected_zero"] and (value != 0 if exact else a > DEFAULT_ZERO_TOL):
                violations.append(
                    {"word": word, "channel": ch, "n": n, "value": str(value), "abs": a}
                )
            elif n == d_of[ch] + 1 and a > DEFAULT_WITNESS_TOL:
                if ch not in witness or a > witness[ch]["abs"]:
                    witness[ch] = {"word": word, "abs": a, "value": str(value)}
    return tuple(
        dict(row, witness=witness.get(ch) if n == d_of[ch] + 1 else None)
        for (n, ch), row in sorted(rows.items())
    ), tuple(violations)


@pytest.mark.parametrize(
    "n1, n2, n_max, backend",
    [(2, 2, 4, "rational"), (1, 1, 4, "rational"), (3, 3, 4, "mp"), (1, 4, 4, "mp")],
)
def test_overclaimed_orders_violations_match_reference(n1, n2, n_max, backend, monkeypatch):
    """Claim one order more than proven: the violations, in depth-first word
    order, and the rows match a word-by-word reference."""
    proven = ddbound.dyson.decoupling_orders

    def overclaimed(n1, n2, mode="analytic"):
        return DecouplingOrders(*(d + 1 for d in proven(n1, n2, mode).as_tuple()))

    monkeypatch.setattr(ddbound.dyson, "decoupling_orders", overclaimed)
    cert = verify_orders(n1, n2, n_max, backend=backend)
    d_of = dict(zip("xyz", cert.orders.as_tuple()))
    rows, violations = _reference_certificate(n1, n2, n_max, backend, d_of)
    assert violations and not cert.certified
    assert cert.violations == violations
    assert cert.rows == rows
