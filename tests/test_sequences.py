"""Schedule construction and switching-function tests.

Hand-computed reference times for small orders: a level of order N places
pulses at offsets sin^2(l*pi/(2N+2)) of its interval, so order 2 gives
{1/4, 3/4} and order 1 gives {1/2} plus an appended frame-closing pulse at 1.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddbound.dyson import signature, verify_orders
from ddbound.nudd_bounds import d_min_for_orders, nudd_delta, nudd_distance_bound, nudd_sweep_cell
from ddbound.qdd_bounds import EtaVector, decoupling_orders, delta_tail
from ddbound.sequences import (
    PulseSchedule,
    _effective_order,
    nesting_grid,
    nudd_schedule,
    qdd_schedule,
    udd_offsets,
)
from ddbound.simulator import BathSpec, ExperimentConfig

#: The levels of its qubit's two (z pulses first) that each letter of a
#: switching label reads, and the (z-level, x-level) pair ``mu`` that keyed
#: each qubit's switching functions when they were float breakpoint profiles.
_READS = {"0": (), "x": (0,), "z": (1,), "y": (0, 1)}
_MU = {"0": (0, 0), "x": (1, 0), "z": (0, 1), "y": (1, 1)}


def _events_at_level(schedule, level):
    return tuple(e for e in schedule.events if e.level == level)


def _label(letter, qubit, m):
    """The m-qubit label with ``letter`` at ``qubit`` and 0 elsewhere."""
    return "0" * qubit + letter + "0" * (m - qubit - 1)


def _profile(grid, label):
    """``label``'s switching function as a float profile: its breakpoints, a
    grid end wherever one of the levels it reads flips (so a flip at time 1,
    which closes the toggling frame, is none), and one int sign per piece."""
    picked = grid.signs[[2 * q + i for q, letter in enumerate(label) for i in _READS[letter]]]
    flips = np.flatnonzero((picked[:, 1:] != picked[:, :-1]).any(axis=0))
    row = grid.switching([label])[0]
    return (0.0, *grid.ends[flips].tolist(), 1.0), tuple(int(v) for v in row[np.r_[0, flips + 1]])


def _per_qubit(orders):
    """Each qubit's four switching profiles, keyed by ``(qubit, mu)``."""
    grid, m = nesting_grid(orders), len(orders) // 2
    return {
        (q, mu): _profile(grid, _label(letter, q, m))
        for q in range(m)
        for letter, mu in _MU.items()
    }


def _sign_changes(profile):
    """Number of interior sign flips."""
    signs = profile[1]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _moment(grid, label):
    """First moment of ``label``'s switching function: sum of sign * length."""
    return math.fsum(grid.lengths * grid.switching([label])[0])


def test_effective_order():
    assert _effective_order(0) == 0
    assert _effective_order(1) == 2
    assert _effective_order(2) == 2
    assert _effective_order(7) == 8
    assert _effective_order(10) == 10


def test_udd_offsets_small():
    assert udd_offsets(0) == ()
    assert udd_offsets(1) == (0.5, 1.0)
    assert udd_offsets(2) == (0.25, 0.75)
    off3 = udd_offsets(3)
    assert len(off3) == 4 and off3[-1] == 1.0
    assert off3[0] == pytest.approx(math.sin(math.pi / 8) ** 2, rel=1e-15)


def test_udd_offsets_strictly_increasing():
    for n in range(1, 20):
        off = udd_offsets(n)
        assert len(off) == _effective_order(n)
        assert all(a < b for a, b in zip(off, off[1:]))
        assert 0.0 < off[0] and off[-1] <= 1.0


def test_qdd_22_exact_times():
    """Order-2 inner and outer levels give exactly dyadic pulse times."""
    sched = qdd_schedule(2, 2)
    z_times = [e.time for e in sched.events if e.axis == "z"]
    x_times = [e.time for e in sched.events if e.axis == "x"]
    assert z_times == [1 / 16, 3 / 16, 3 / 8, 5 / 8, 13 / 16, 15 / 16]
    assert x_times == [1 / 4, 3 / 4]
    assert len(sched.events) == 8


def test_qdd_11_event_order_and_ties():
    """Coincident pulses keep inner (z) before outer (x) at equal times."""
    sched = qdd_schedule(1, 1)
    rows = [(e.time, e.axis, e.level) for e in sched.events]
    assert rows == [
        (0.25, "z", 1),
        (0.5, "z", 1),
        (0.5, "x", 2),
        (0.75, "z", 1),
        (1.0, "z", 1),
        (1.0, "x", 2),
    ]


def test_qdd_equals_single_qubit_nudd():
    for n1, n2 in [(0, 0), (1, 1), (3, 2), (2, 5)]:
        assert qdd_schedule(n1, n2) == nudd_schedule((n1, n2), 1)


def test_level_event_counts():
    """Level i carries N'_i pulses per parent interval, and level i sees
    prod_{p>i} (N_p + 1) parent intervals."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 3))
        orders = tuple(int(rng.integers(0, 5)) for _ in range(2 * m))
        sched = nudd_schedule(orders, m)
        for i, n in enumerate(orders, start=1):
            parents = 1
            for p in range(i, len(orders)):
                parents *= orders[p] + 1
            expected = _effective_order(n) * parents
            assert len(_events_at_level(sched, i)) == expected


def test_events_sorted_and_in_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        orders = tuple(int(rng.integers(0, 6)) for _ in range(2 * m))
        sched = nudd_schedule(orders, m)
        keys = [(e.time, e.level) for e in sched.events]
        assert keys == sorted(keys)
        assert all(0.0 < e.time <= 1.0 for e in sched.events)
        # even event count per level: appended pulses close every frame
        for i in range(1, 2 * m + 1):
            assert len(_events_at_level(sched, i)) % 2 == 0


def test_axis_and_qubit_assignment():
    sched = nudd_schedule((1, 1, 1, 1), 2)
    by_level = {i: _events_at_level(sched, i) for i in range(1, 5)}
    assert {e.axis for e in by_level[1]} == {"z"}
    assert {e.axis for e in by_level[2]} == {"x"}
    assert {e.axis for e in by_level[3]} == {"z"}
    assert {e.axis for e in by_level[4]} == {"x"}
    assert {e.qubit for e in by_level[1]} == {0}
    assert {e.qubit for e in by_level[2]} == {0}
    assert {e.qubit for e in by_level[3]} == {1}
    assert {e.qubit for e in by_level[4]} == {1}


def test_nudd_event_total_m2():
    # levels 1..4 with orders (1,1,1,1): 2*2*2*2? counted per level:
    # level 1: 2 * (2*2*2) = 16, level 2: 2*4=8, level 3: 2*2=4, level 4: 2
    sched = nudd_schedule((1, 1, 1, 1), 2)
    assert len(sched.events) == 30


def test_validation_errors():
    with pytest.raises(ValueError):
        qdd_schedule(-1, 2)
    with pytest.raises(ValueError):
        nudd_schedule((1, 2, 3), 1)  # odd number of levels
    with pytest.raises(ValueError):
        nudd_schedule((1, 2), 2)  # qubit count mismatch
    with pytest.raises(ValueError):
        nudd_schedule((), 0)


# ---------------------------------------------------------------- switching


def test_switching_qdd_22_fz():
    grid = nesting_grid((2, 2))
    assert grid.switching(["z"]).tolist() == [[1.0] * 3 + [-1.0] * 3 + [1.0] * 3]
    assert _profile(grid, "z") == ((0.0, 0.25, 0.75, 1.0), (1, -1, 1))


def test_switching_qdd_22_fx_flips_at_z_times():
    breakpoints, signs = _profile(nesting_grid((2, 2)), "x")
    assert breakpoints == (0.0, 1 / 16, 3 / 16, 3 / 8, 5 / 8, 13 / 16, 15 / 16, 1.0)
    assert signs[0] == 1
    assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_switching_product_identity():
    """f_y = f_x * f_z on every interval, for every qubit."""
    for orders, m in [((2, 3), 1), ((3, 3), 1), ((1, 2, 3, 1), 2)]:
        grid = nesting_grid(orders)
        for q in range(m):
            f_x, f_z, f_y = grid.switching([_label(c, q, m) for c in "xzy"])
            assert (f_y == f_x * f_z).all()


def test_switching_integrals_vanish():
    """First-moment suppression: every switching integral is 0 up to
    rounding when both levels have order >= 1."""
    for n1, n2 in [(1, 1), (2, 2), (1, 2), (2, 1), (3, 3), (2, 4)]:
        grid = nesting_grid((n1, n2))
        for ch in ("x", "y", "z"):
            assert _moment(grid, ch) == pytest.approx(0.0, abs=1e-15)


def test_switching_trivial_channel():
    grid = nesting_grid((2, 2))
    assert (grid.switching(["0"]) == 1.0).all()
    assert _profile(grid, "0") == ((0.0, 1.0), (1,))
    assert _moment(grid, "0") == 1.0


def test_switching_no_outer_pulses():
    # without outer pulses the z switching function never flips
    grid = nesting_grid((3, 0))
    assert (grid.switching(["z"]) == 1.0).all()
    assert _profile(grid, "z") == ((0.0, 1.0), (1,))


def test_interior_flip_count_matches_events():
    for n1, n2 in [(1, 1), (2, 2), (3, 2)]:
        sched = qdd_schedule(n1, n2)
        grid = nesting_grid((n1, n2))
        z_interior = len([e for e in sched.events if e.axis == "z" and e.time < 1.0])
        x_interior = len([e for e in sched.events if e.axis == "x" and e.time < 1.0])
        assert _sign_changes(_profile(grid, "x")) == z_interior
        assert _sign_changes(_profile(grid, "z")) == x_interior


def test_nudd_switching_m1_matches_qdd():
    """One qubit's rows are the stack (1, s_x, s_x s_z, s_z) of its two level
    sign rows, inner (z pulses) first."""
    grid = nesting_grid((2, 2))
    s_x, s_z = grid.signs
    assert grid.switching(["0", "x", "y", "z"]).tolist() == [
        [1] * len(s_x), s_x.tolist(), (s_x * s_z).tolist(), s_z.tolist()
    ]


def test_nudd_switching_m2_factorizes():
    """The outermost qubit's switching profile only sees its own two levels."""
    per_mu = _per_qubit((1, 2, 2, 1))
    solo0 = nesting_grid((1, 2))
    # qubit 1 holds the outer level pair, so alone it behaves like a plain
    # two-level sequence with orders (2, 1)
    solo1 = nesting_grid((2, 1))
    for label in ("x", "y", "z"):
        assert per_mu[(1, _MU[label])] == _profile(solo1, label)
    # qubit 0 profiles flip once per outer segment, more than standalone
    assert _sign_changes(per_mu[(0, _MU["x"])]) >= _sign_changes(_profile(solo0, "x"))


#: Per-level orders of one qubit or two, each 0..6.
_GRID_ORDERS = st.integers(1, 2).flatmap(
    lambda m: st.lists(st.integers(0, 6), min_size=2 * m, max_size=2 * m)
)


@settings(max_examples=150, deadline=None)
@given(orders=_GRID_ORDERS, data=st.data())
def test_switching_rows_are_level_products(orders, data):
    """Each label's row is the product of the level sign rows its letters
    read, an all-0 label's row is ones, and for one qubit a letter's first
    moment vanishes as soon as a level it reads fires a pulse."""
    grid, m = nesting_grid(orders), len(orders) // 2
    labels = data.draw(st.lists(st.text("0xyz", min_size=m, max_size=m), max_size=6))
    rows = grid.switching(labels)
    assert rows.shape == (len(labels), grid.ends.size) and rows.dtype == np.float64
    for label, row in zip(labels, rows):
        reads = [2 * q + i for q, letter in enumerate(label) for i in _READS[letter]]
        assert row.tolist() == np.prod(grid.signs[reads], axis=0).tolist()
    assert (grid.switching(["0" * m]) == 1.0).all()
    if m == 1:
        n1, n2 = orders
        for label, fires in (("x", n1 >= 1), ("z", n2 >= 1), ("y", n1 >= 1 or n2 >= 1)):
            if fires:
                assert abs(_moment(grid, label)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(orders=_GRID_ORDERS, label=st.one_of(st.text("0xyzXY1 ", max_size=5), st.integers()))
def test_switching_rejects_bad_labels(orders, label):
    """A label is a string of one letter of 0xyz per qubit; anything else is
    refused, however it sits among good labels."""
    m = len(orders) // 2
    good = isinstance(label, str) and len(label) == m and set(label) <= set("0xyz")
    grid = nesting_grid(orders)
    if good:
        assert grid.switching(["0" * m, label]).shape == (2, grid.ends.size)
    else:
        with pytest.raises(ValueError, match="a switching label needs one letter of 0, x, y, z"):
            grid.switching(["0" * m, label])


@pytest.mark.parametrize(
    "orders, label",
    [((1, 1), "xx"), ((1, 1), ""), ((1, 1, 1, 1), "x"), ((1, 1), "X"), ((1, 1, 1), "x"),
     ((1, 1), 1)],
    ids=repr,
)
def test_switching_label_messages(orders, label):
    with pytest.raises(ValueError) as exc:
        nesting_grid(orders).switching([label])
    assert str(exc.value) == (
        f"a switching label needs one letter of 0, x, y, z per qubit of orders {orders}, "
        f"got {label!r}"
    )


# Frozen breakpoints and signs ("+" for +1) of the float switching functions,
# qdd (3, 2) and nested m = 1 (2, 3) and m = 2 (1, 2, 1, 1).
_QDD_32 = {
    "0": (
        (0.0, 1.0),
        "+",
    ),
    "x": (
        (0.0, 0.03661165235168156, 0.12499999999999997, 0.21338834764831843, 0.25,
         0.32322330470336313, 0.4999999999999999, 0.6767766952966368, 0.75,
         0.7866116523516815, 0.875, 0.9633883476483185, 1.0),
        "+-+-+-+-+-+-",
    ),
    "y": (
        (0.0, 0.03661165235168156, 0.12499999999999997, 0.21338834764831843, 0.25,
         0.32322330470336313, 0.4999999999999999, 0.6767766952966368, 0.75,
         0.7866116523516815, 0.875, 0.9633883476483185, 1.0),
        "+-+--+-++-+-",
    ),
    "z": (
        (0.0, 0.25, 0.75, 1.0),
        "+-+",
    ),
}

_NUDD_23 = {
    (0, (0, 0)): (
        (0.0, 1.0),
        "+",
    ),
    (0, (1, 0)): (
        (0.0, 0.03661165235168156, 0.10983495705504467, 0.23483495705504465,
         0.41161165235168146, 0.5883883476483183, 0.7651650429449552,
         0.8901650429449552, 0.9633883476483185, 1.0),
        "+-+-+-+-+",
    ),
    (0, (0, 1)): (
        (0.0, 0.14644660940672624, 0.4999999999999999, 0.8535533905932737, 1.0),
        "+-+-",
    ),
    (0, (1, 1)): (
        (0.0, 0.03661165235168156, 0.10983495705504467, 0.14644660940672624,
         0.23483495705504465, 0.41161165235168146, 0.4999999999999999,
         0.5883883476483183, 0.7651650429449552, 0.8535533905932737,
         0.8901650429449552, 0.9633883476483185, 1.0),
        "+-+-+-+-+-+-",
    ),
}

_NUDD_1211 = {
    (0, (0, 0)): (
        (0.0, 1.0),
        "+",
    ),
    (0, (1, 0)): (
        (0.0, 0.03125, 0.0625, 0.125, 0.1875, 0.21875, 0.25, 0.28125, 0.3125, 0.375,
         0.4375, 0.46875, 0.5, 0.53125, 0.5625, 0.625, 0.6875, 0.71875, 0.75, 0.78125,
         0.8125, 0.875, 0.9375, 0.96875, 1.0),
        "+-+-+-+-+-+-+-+-+-+-+-+-",
    ),
    (0, (0, 1)): (
        (0.0, 0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375, 1.0),
        "+-+-+-+-+",
    ),
    (0, (1, 1)): (
        (0.0, 0.03125, 0.0625, 0.125, 0.1875, 0.21875, 0.25, 0.28125, 0.3125, 0.375,
         0.4375, 0.46875, 0.5, 0.53125, 0.5625, 0.625, 0.6875, 0.71875, 0.75, 0.78125,
         0.8125, 0.875, 0.9375, 0.96875, 1.0),
        "+--++-+--++-+--++-+--++-",
    ),
    (1, (0, 0)): (
        (0.0, 1.0),
        "+",
    ),
    (1, (1, 0)): (
        (0.0, 0.25, 0.5, 0.75, 1.0),
        "+-+-",
    ),
    (1, (0, 1)): (
        (0.0, 0.5, 1.0),
        "+-",
    ),
    (1, (1, 1)): (
        (0.0, 0.25, 0.5, 0.75, 1.0),
        "+--+",
    ),
}


def _as_recorded(profiles):
    return {
        key: (breakpoints, "".join("+" if s > 0 else "-" for s in signs))
        for key, (breakpoints, signs) in profiles.items()
    }


def test_switching_profiles_frozen():
    qdd_32 = {letter: _profile(nesting_grid((3, 2)), letter) for letter in _MU}
    assert _as_recorded(qdd_32) == _QDD_32
    assert _as_recorded(_per_qubit((2, 3))) == _NUDD_23
    assert _as_recorded(_per_qubit((1, 2, 1, 1))) == _NUDD_1211


#: sha256 of the ``repr`` of the events and of every switching profile of each
#: schedule in ``_frozen_orders``, recorded when each level's pulses were still
#: placed by recursion over its blocks and the profiles merged by float
#: comparison, before both were read off the nesting grid.  Each profile is
#: written as the ``repr`` of the breakpoint type it was recorded from.
SCHEDULE_DIGEST = "47bb3d1ca0cf80c757bb2b3f671209189a30317dbbf2298a95b6ec60bdccd49a"


def _frozen_orders():
    """m = 1 with orders 0..12 x 0..12 and (34, 34); m = 2 with orders 0..3."""
    yield from (((n1, n2), 1) for n1 in range(13) for n2 in range(13))
    yield (34, 34), 1
    yield from ((orders, 2) for orders in itertools.product(range(4), repeat=4))


def test_schedules_frozen():
    blob = hashlib.sha256()
    for orders, m in _frozen_orders():
        schedule = nudd_schedule(orders, m)
        blob.update(f"{orders} {schedule.events!r}\n".encode())
        for key, (breakpoints, signs) in _per_qubit(orders).items():
            profile = f"SwitchingProfile(breakpoints={breakpoints!r}, signs={signs!r})"
            blob.update(f"{key} {profile}\n".encode())
    assert blob.hexdigest() == SCHEDULE_DIGEST


# ------------------------------------------------------------------- orders

_BATH = BathSpec(dim=2, seed=1, norms={"0": 1.0, "x": 0.3})

#: Every entry point that takes nesting orders, with the first order ``n``.
_ORDER_ENTRY_POINTS = {
    "PulseSchedule": lambda n: PulseSchedule((n, 2), 1),
    "qdd_schedule": lambda n: qdd_schedule(n, 2),
    "udd_offsets": udd_offsets,
    "ExperimentConfig": lambda n: ExperimentConfig("qdd", (n, 2), _BATH, 1.0),
    "d_min_for_orders": lambda n: d_min_for_orders((n, 2)),
    "decoupling_orders": lambda n: decoupling_orders(n, 2),
    "signature": lambda n: signature(nesting_grid((n, 2)), 1),
    "verify_orders": lambda n: verify_orders(n, 2, 2),
    "delta_tail": lambda n: delta_tail(4, n, 0.1, EtaVector.isotropic(0.1)),
    "nudd_delta": lambda n: nudd_delta(n, 0.1, 0.1, 2),
    "nudd_distance_bound": lambda n: nudd_distance_bound(n, 0.1, 0.1, 2),
    "nudd_sweep_cell": lambda n: nudd_sweep_cell(2, n, 0.1, (0.1,)),
}


@pytest.mark.parametrize("entry", _ORDER_ENTRY_POINTS)
@pytest.mark.parametrize("order", [2.5, True, "2", -1], ids=repr)
def test_orders_check_rejects(entry, order):
    """One check of the orders: an integral, non-bool value >= 0, everywhere."""
    with pytest.raises(ValueError, match="orders must be integers >= 0"):
        _ORDER_ENTRY_POINTS[entry](order)


@pytest.mark.parametrize("entry", _ORDER_ENTRY_POINTS)
def test_orders_check_accepts_numpy_integers(entry):
    assert repr(_ORDER_ENTRY_POINTS[entry](np.int64(2))) == repr(_ORDER_ENTRY_POINTS[entry](2))


def test_schedule_size_is_bounded():
    """A schedule has at most 10^6 finest intervals, the product of N_l + 1."""
    assert nudd_schedule((9,) * 6, 3).orders == (9,) * 6  # 10^6 intervals
    for build in (lambda o: nudd_schedule(o, 3), nesting_grid):
        with pytest.raises(ValueError, match="make a schedule of 1100000 intervals"):
            build((9,) * 5 + (10,))


#: The orders of one to three qubits, each order near a value that puts the
#: schedule on either side of 10^6 intervals for two or four levels, or
#: anywhere in its domain.
_SIZE_ORDER = st.one_of(
    st.integers(0, 12), st.integers(25, 40), st.integers(990, 1010), st.integers(0, 10_000)
)
_SIZE_ORDERS = st.integers(1, 3).flatmap(
    lambda m: st.lists(_SIZE_ORDER, min_size=2 * m, max_size=2 * m)
)


@settings(max_examples=300, deadline=None)
@given(orders=_SIZE_ORDERS)
@example(orders=[999, 999])
@example(orders=[999, 1000])
def test_schedule_accepted_exactly_up_to_the_size_limit(orders):
    """``PulseSchedule`` accepts its orders exactly when the product of
    N_l + 1 is at most 10^6, and builds no grid to decide."""
    count = math.prod(n + 1 for n in orders)
    if count <= 10**6:
        schedule = PulseSchedule(tuple(orders), len(orders) // 2)
        assert "events" not in vars(schedule)  # the grid is built on first read
    else:
        with pytest.raises(ValueError, match=f"make a schedule of {count} intervals, more than"):
            PulseSchedule(tuple(orders), len(orders) // 2)
