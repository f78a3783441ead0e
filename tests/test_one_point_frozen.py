"""The one-point bound views are frozen bit for bit.

A seeded set of ``distance_bound``, ``delta_tail``, ``nudd_distance_bound``
and ``nudd_delta`` calls is evaluated, and each value's text (or the type
and message of the error it raises) goes into one sha256.  A tail's text is
its ``repr``; a bound's row is written as the report that the digest was
recorded from (``_report``), so the digest still pins every bit.  The set
covers eps = 0, eta with zero components, results below the smallest normal
double and tails beyond double range, so a change to the tail pass that moves
any bit of these views, or the text of their errors, shows here.  The two
errors of a point that fails the row rule are also checked by name.
"""

import hashlib
import math
from functools import partial

import numpy as np
import pytest

from ddbound.nudd_bounds import nudd_delta, nudd_distance_bound
from ddbound.qdd_bounds import DecouplingOrders, EtaVector, delta_tail, distance_bound
from ddbound.series import NORMAL_MIN, NonConvergenceError

DIGEST = "985641ae0258f61df192f93d2e0c44ddf5f6f4755acca96aeb735b2bf0aab63f"


def _eps(rng):
    """0 one time in six, else log-uniform over 1e-8..1e3."""
    return 0.0 if rng.random() < 1 / 6 else float(10.0 ** rng.uniform(-8, 3))


def _eta(rng):
    """0 one time in four, else log-uniform over 1e-6..1e3."""
    return 0.0 if rng.random() < 1 / 4 else float(10.0 ** rng.uniform(-6, 3))


def _qdd_eta(rng):
    return EtaVector(_eta(rng), _eta(rng), _eta(rng))


#: Where each view takes epsilon.
_EPS_AT = {distance_bound: 2, delta_tail: 2, nudd_distance_bound: 1, nudd_delta: 1}


def _calls(rng, per_view=120):
    for _ in range(per_view):
        mode = ("analytic", "numeric-footnote")[rng.integers(2)]
        n1, n2 = (int(n) for n in rng.integers(0, 41, size=2))
        yield distance_bound, (n1, n2, _eps(rng), _qdd_eta(rng), mode)
        j, d = int(rng.integers(8)), int(rng.integers(0, 61))
        yield delta_tail, (j, d, _eps(rng), _qdd_eta(rng))
        d_min, m = int(rng.integers(0, 301)), int(rng.integers(1, 32))
        yield nudd_distance_bound, (d_min, _eps(rng), _eta(rng), m)
        d_min, m = int(rng.integers(0, 301)), int(rng.integers(1, 32))
        yield nudd_delta, (d_min, _eps(rng), _eta(rng), m)


#: The float values of each bound's row.
_ROW_FLOATS = {
    distance_bound: ("epsilon", "D_bound", "D_leading"),
    nudd_distance_bound: ("epsilon", "eta", "Delta", "D_bound", "D_leading"),
}


def _floats(view, value):
    if isinstance(value, tuple):
        return list(value)
    return [value[c] for c in _ROW_FLOATS[view]]


def _report(view, args, r):
    """The text of a value ``r``: a tail's ``repr``, and a bound's row as the
    ``repr`` of the report type that held it when the digest was recorded."""
    if isinstance(r, tuple):
        return repr(r)
    if view is nudd_distance_bound:
        return (
            f"NuddBoundReport(m={r['m']!r}, d_min={r['d_min']!r}, epsilon={r['epsilon']!r}, "
            f"eta={r['eta']!r}, delta={r['Delta']!r}, distance_bound={r['D_bound']!r}, "
            f"leading_term={r['D_leading']!r})"
        )
    eta = EtaVector(r["eta_x"], r["eta_y"], r["eta_z"])
    orders = DecouplingOrders(r["d_x"], r["d_y"], r["d_z"])
    return (
        f"BoundReport(epsilon={r['epsilon']!r}, eta={eta!r}, orders={orders!r}, "
        f"channel_bounds=ChannelBounds(L_x={r['L_x']!r}, L_y={r['L_y']!r}, L_z={r['L_z']!r}), "
        f"distance_bound={r['D_bound']!r}, leading_term={r['D_leading']!r}, mode={args[4]!r})"
    )


def test_one_point_views_frozen():
    blob = hashlib.sha256()
    seen = {"zero eps": 0, "error": 0, "subnormal": 0}
    for view, args in _calls(np.random.default_rng(20240611)):
        try:
            value = view(*args)
        except (ValueError, NonConvergenceError) as exc:  # the message is frozen too
            text = f"{type(exc).__name__}: {exc}"
            seen["error"] += 1
        else:
            text = _report(view, args, value)
            seen["subnormal"] += any(0.0 < v < NORMAL_MIN for v in _floats(view, value))
            assert all(not math.isnan(v) for v in _floats(view, value))
        seen["zero eps"] += args[_EPS_AT[view]] == 0.0
        blob.update(f"{view.__name__}{args!r} -> {text}\n".encode())
    assert all(count >= 5 for count in seen.values()), seen
    assert blob.hexdigest() == DIGEST


_NOT_CONVERGED = (
    "tail series did not converge within its cap or overflowed at epsilon={}; "
    "the requested (epsilon, eta) regime is outside double range"
)
_OVERFLOW = "D_bound outside double range"


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(distance_bound, 2, 2, 700.0, EtaVector.isotropic(1.0)),
         _NOT_CONVERGED.format(700)),
        (partial(nudd_distance_bound, 5, 1.0, 100.0, 10), _NOT_CONVERGED.format(1)),
        (partial(distance_bound, 2, 2, 100.0, EtaVector.isotropic(1.0)), _OVERFLOW),
        (partial(nudd_distance_bound, 2, 100.0, 1.0, 1), _OVERFLOW),
    ],
    ids=["qdd-not-converged", "nudd-not-converged", "qdd-overflow", "nudd-overflow"],
)
def test_one_point_errors(call, message):
    """A point that did not converge, or whose D_bound overflows, raises
    exactly its message."""
    with pytest.raises(NonConvergenceError) as exc:
        call()
    assert str(exc.value) == message
