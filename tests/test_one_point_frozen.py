"""The one-point bound views are frozen bit for bit.

A seeded set of ``distance_bound``, ``delta_tail``, ``nudd_distance_bound``
and ``nudd_delta`` calls is evaluated, and each value's ``repr`` (or the
type and message of the error it raises) goes into one sha256.  The set
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

from ddbound.nudd_bounds import nudd_delta, nudd_distance_bound, nudd_sweep_row
from ddbound.qdd_bounds import EtaVector, delta_tail, distance_bound, sweep_row
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


def _floats(value):
    if isinstance(value, tuple):
        return list(value)
    return [v for v in vars(value).values() if isinstance(v, float)]


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
            text = repr(value)
            seen["subnormal"] += any(0.0 < v < NORMAL_MIN for v in _floats(value))
            assert all(not math.isnan(v) for v in _floats(value))
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
        (partial(sweep_row, 2, 2, 700.0, EtaVector.isotropic(1.0)), _NOT_CONVERGED.format(700)),
        (partial(nudd_sweep_row, 10, 5, 1.0, 100.0), _NOT_CONVERGED.format(1)),
        (partial(sweep_row, 2, 2, 100.0, EtaVector.isotropic(1.0)), _OVERFLOW),
        (partial(nudd_sweep_row, 1, 2, 100.0, 1.0), _OVERFLOW),
        (partial(distance_bound, 2, 2, 100.0, EtaVector.isotropic(1.0)), _OVERFLOW),
        (partial(nudd_distance_bound, 2, 100.0, 1.0, 1), _OVERFLOW),
    ],
    ids=["qdd-row-not-converged", "nudd-row-not-converged", "qdd-row-overflow",
         "nudd-row-overflow", "qdd-bound-overflow", "nudd-bound-overflow"],
)
def test_one_point_errors(call, message):
    """A point that did not converge, or whose D_bound overflows, raises
    exactly its message."""
    with pytest.raises(NonConvergenceError) as exc:
        call()
    assert str(exc.value) == message
