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

from ddbound.dyson import signature, verify_orders
from ddbound.nudd_bounds import d_min_for_orders
from ddbound.qdd_bounds import decoupling_orders
from ddbound.sequences import (
    _MU_LABELS,
    PulseSchedule,
    SwitchingProfile,
    _effective_order,
    _switching_nudd,
    nesting_grid,
    nudd_schedule,
    qdd_schedule,
    switching_qdd,
    udd_offsets,
)
from ddbound.simulator import BathSpec, ExperimentConfig

_MU_OF_LABEL = {label: mu for mu, label in _MU_LABELS.items()}


def _events_at_level(schedule, level):
    return tuple(e for e in schedule.events if e.level == level)


def _sign_changes(profile):
    """Number of interior sign flips."""
    return sum(1 for a, b in zip(profile.signs, profile.signs[1:]) if a != b)


def _integral(profile):
    """First moment as a float: sum of sign * interval width."""
    bp = profile.breakpoints
    return math.fsum(s * (b - a) for s, a, b in zip(profile.signs, bp, bp[1:]))


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
    prof = switching_qdd(2, 2)["z"]
    assert prof.breakpoints == (0.0, 0.25, 0.75, 1.0)
    assert prof.signs == (1.0, -1.0, 1.0)


def test_switching_qdd_22_fx_flips_at_z_times():
    prof = switching_qdd(2, 2)["x"]
    assert prof.breakpoints == (0.0, 1 / 16, 3 / 16, 3 / 8, 5 / 8, 13 / 16, 15 / 16, 1.0)
    signs = prof.signs
    assert signs[0] == 1.0
    assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_switching_product_identity():
    """f_y = f_x * f_z pointwise, on a fine grid and at every breakpoint."""
    for orders, m in [((2, 3), 1), ((3, 3), 1), ((1, 2, 3, 1), 2)]:
        profs = _switching_nudd(nudd_schedule(orders, m))
        for q in range(m):
            f_x, f_z, f_y = (profs[(q, mu)] for mu in ((1, 0), (0, 1), (1, 1)))
            points = {*np.linspace(0.0, 1.0, 501).tolist(), *f_x.breakpoints, *f_z.breakpoints}
            for s in points:
                assert f_y.value(s) == f_x.value(s) * f_z.value(s)


def test_switching_integrals_vanish():
    """First-moment suppression: every switching integral is exactly 0 when
    both levels have order >= 1."""
    for n1, n2 in [(1, 1), (2, 2), (1, 2), (2, 1), (3, 3), (2, 4)]:
        profs = switching_qdd(n1, n2)
        for ch in ("x", "y", "z"):
            assert _integral(profs[ch]) == pytest.approx(0.0, abs=1e-15)


def test_switching_trivial_channel():
    profs = switching_qdd(2, 2)
    assert profs["0"].signs == (1.0,)
    assert _integral(profs["0"]) == 1.0


def test_switching_no_outer_pulses():
    # without outer pulses the z switching function never flips
    prof = switching_qdd(3, 0)["z"]
    assert _sign_changes(prof) == 0
    assert _integral(prof) == 1.0


def test_interior_flip_count_matches_events():
    for n1, n2 in [(1, 1), (2, 2), (3, 2)]:
        sched = qdd_schedule(n1, n2)
        profs = switching_qdd(n1, n2)
        z_interior = len([e for e in sched.events if e.axis == "z" and e.time < 1.0])
        x_interior = len([e for e in sched.events if e.axis == "x" and e.time < 1.0])
        assert _sign_changes(profs["x"]) == z_interior
        assert _sign_changes(profs["z"]) == x_interior


def test_profile_value_semantics():
    prof = SwitchingProfile((0.0, 0.5, 1.0), (1.0, -1.0))
    assert prof.value(0.0) == 1.0
    assert prof.value(0.499) == 1.0
    assert prof.value(0.5) == -1.0  # right continuous at breakpoints
    assert prof.value(1.0) == -1.0  # closing endpoint takes the last sign


def test_profile_validation():
    with pytest.raises(ValueError):
        SwitchingProfile((0.0, 1.0), (1.0, -1.0))  # sign count mismatch
    with pytest.raises(ValueError):
        SwitchingProfile((0.0, 0.5, 0.5, 1.0), (1.0, -1.0, 1.0))  # dup breakpoint
    with pytest.raises(ValueError):
        SwitchingProfile((0.0, 0.5, 1.0), (1.0, 2.0))  # non-unit sign


def test_nudd_switching_m1_matches_qdd():
    sched = qdd_schedule(2, 2)
    per_mu = _switching_nudd(sched)
    qdd = switching_qdd(2, 2)
    for label in ("0", "x", "y", "z"):
        assert per_mu[(0, _MU_OF_LABEL[label])] == qdd[label]


def test_nudd_switching_m2_factorizes():
    """The outermost qubit's switching profile only sees its own two levels."""
    sched = nudd_schedule((1, 2, 2, 1), 2)
    per_mu = _switching_nudd(sched)
    solo0 = switching_qdd(1, 2)
    # qubit 1 holds the outer level pair, so alone it behaves like a plain
    # two-level sequence with orders (2, 1)
    solo1 = switching_qdd(2, 1)
    for label in ("x", "y", "z"):
        assert per_mu[(1, _MU_OF_LABEL[label])] == solo1[label]
    # qubit 0 profiles flip once per outer segment, more than standalone
    assert _sign_changes(per_mu[(0, _MU_OF_LABEL["x"])]) >= _sign_changes(solo0["x"])


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
        key: (p.breakpoints, "".join("+" if s > 0 else "-" for s in p.signs))
        for key, p in profiles.items()
    }


def test_switching_profiles_frozen():
    assert _as_recorded(switching_qdd(3, 2)) == _QDD_32
    assert _as_recorded(_switching_nudd(nudd_schedule((2, 3), 1))) == _NUDD_23
    assert _as_recorded(_switching_nudd(nudd_schedule((1, 2, 1, 1), 2))) == _NUDD_1211


#: sha256 of the ``repr`` of the events and of every switching profile of each
#: schedule in ``_frozen_orders``, recorded when each level's pulses were still
#: placed by recursion over its blocks and the profiles merged by float
#: comparison, before both were read off the nesting grid.
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
        for key, profile in _switching_nudd(schedule).items():
            blob.update(f"{key} {profile!r}\n".encode())
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
