"""Analytic error bounds for general nested (multi-qubit) sequences.

For ``m`` protected qubits all ``gamma = 4^m - 1`` non-identity coupling
channels are collapsed onto a single norm scale ``J1`` (their maximum), which
trades channel resolution for a closed two-parameter theory.  The sum of all
error-word weights is bounded by the entire function

    S_K(T) = gamma * e^(J0 T) * (e^(gamma J1 T) - e^(-J1 T)) / (gamma + 1),

whose Taylor tail past the sequence's minimum suppression order bounds the
total error-channel norm; the trace-norm distance bound is then
``Delta^2 + Delta``.  ``_nudd_series`` writes that series once; the tail and
its leading term come from it, and its coefficients ``g_l`` are a reference
for the tests (``tests/closed_forms.py``).

``nudd_sweep_cell`` evaluates a cell's whole eps grid in one batched pass and
returns it as columns and the converged mask, whose good points the one row
rule ``series.cell_ok`` decides.  ``nudd_distance_bound`` is its one-point
view, the cell's row at one eps (``series.first_row``); ``nudd_delta`` gives
the tail Delta_{d_min} from the same pass.  Every reported value is rounded
outward.
"""

from __future__ import annotations

import math

import numpy as np

from .qdd_bounds import _PANEL_ETAS, default_eps_grid
from .sequences import _is_int, _validate_orders
from .series import (
    SeriesTail,
    coeff_count,
    exp_series_tail,
    first_row,
    gamma,
    keep_lower,
    loose,
    not_converged,
    power_coeffs,
    product_tail,
    round_up,
    scale_rates,
)

__all__ = [
    "gamma_factor",
    "d_min_for_orders",
    "nudd_delta",
    "nudd_distance_bound",
    "nudd_eps_window",
    "nudd_sweep_cell",
    "preset_nudd_cells",
    "NUDD_SWEEP_COLUMNS",
]

_MAX_M = 31

NUDD_SWEEP_COLUMNS = ("epsilon", "m", "d_min", "eta", "Delta", "D_bound", "D_leading")


def gamma_factor(m: int) -> int:
    """Number of non-identity channels, 4^m - 1, as an exact integer.

    Rejects m other than an integer in 1..31: beyond that 4^m exceeds any
    simulable regime and would silently lose integer exactness in downstream
    floats.
    """
    if not (_is_int(m) and 1 <= m <= _MAX_M):
        raise ValueError(f"qubit count m must be in 1..{_MAX_M}, got {m!r}")
    return 4**m - 1


def d_min_for_orders(orders) -> int:
    """Guaranteed minimum suppression order of a nested schedule.

    This is the minimum of the *requested* per-level orders.  Levels with odd
    order carry an appended frame-closing pulse (an even pulse count), but the
    appended pulse sits at the interval end and cannot raise the suppression
    order: the guaranteed order of an odd-N level is still N.
    """
    orders = _validate_orders(orders)
    if not orders or len(orders) % 2:
        raise ValueError("orders must pair a z and an x level per qubit")
    return min(orders)


def _nudd_series(epsilon, eta: float, m: int):
    """Rates and weights of S_K's Taylor series in epsilon, in the tail format.

    S_K = (1 - 4^-m) * (e^(eps (1 + gamma eta)) - e^(eps (1 - eta))) in units
    of J0 = 1, with gamma = 4^m - 1.  ``epsilon`` may be an array of eps
    points: the rates are then (eps, 2), one group of the tail pass per eps,
    and the weights, (2,), its one slot.  The weight 1 - 4^-m is exact for
    m <= 26 and rounds up to 1 beyond, so the series never falls below S_K.
    """
    g = gamma_factor(m)
    c = 1.0 - 4.0**-m
    eps = np.asarray(epsilon, dtype=float)[..., None]
    return scale_rates(eps, (1.0 + g * eta, 1.0 - eta)), np.array((c, -c))


def _nudd_tails(d_min: int, eps, eta: float, m: int) -> SeriesTail:
    """Outward-rounded tails Delta_{d_min}(eps) over an eps array, from one pass.

    Each eps is a group of one slot; at eps = 0 every rate is 0, and the pass
    gives 0.  At eta = 0 the tail is identically 0.  A loose series also takes
    the nonnegative form S_K = c e^eps * B(eps) with B = e^(gamma x) - e^(-x),
    x = eta eps, whose coefficients (gamma^k - (-1)^k) x^k / k! are
    nonnegative and at most ((gamma+1) x)^k / k!, and keeps the lower of the
    two bounds.
    """
    eps = np.asarray(eps, dtype=float)
    if eta == 0.0:
        return SeriesTail.zeros(eps.size)
    g = gamma_factor(m)
    rates, weights = _nudd_series(eps, eta, m)
    rate_err = scale_rates(gamma(4) * eps, 1.0 + g * eta)
    res = exp_series_tail(rates, weights, d_min, rate_err)
    redo = np.nonzero(loose(res))
    if redo[0].size:
        x = eps[redo[0]] * eta
        length = coeff_count(d_min)
        with np.errstate(under="ignore", over="ignore"):
            ks = np.arange(length)
            p = power_coeffs(g * x, length) - (-1.0) ** ks * power_coeffs(x, length)
        big_x = round_up(x * (g + 1.0) * (1.0 + gamma(3)))
        keep_lower(res, redo, product_tail(p, big_x, eps[redo[0], None], weights[:1], d_min))
    return SeriesTail(*(v[:, 0] for v in res))


def nudd_delta(d_min: int, epsilon: float, eta: float, m: int) -> tuple[float, float]:
    """Tail Delta_{d_min} = sum_{l > d_min} g_l(eta, m) * eps^l and its leading term.

    Returns upper bounds on ``(Delta_{d_min}, g_{d_min+1} * eps^(d_min+1))``
    from one pass: a one-row view of the batched tail.
    """
    d_min = _check_point(d_min, (epsilon,), eta, m)
    res = _nudd_tails(d_min, [epsilon], eta, m)
    if not res.ok[0]:
        raise not_converged(epsilon)
    return float(res.tail[0]), float(res.first[0])


def _check_point(d_min: int, grid, eta: float, m: int) -> int:
    """Check a cell's inputs; return ``d_min`` as an int (``_validate_orders``)."""
    (d_min,) = _validate_orders([d_min])
    if not all(e >= 0 for e in grid):
        raise ValueError("epsilon must be >= 0")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")
    gamma_factor(m)  # rejects m outside 1..31, also where eta = 0 needs no pass
    return d_min


def nudd_sweep_cell(m: int, d_min: int, eta: float, grid) -> tuple[dict, np.ndarray]:
    """One cell over an eps grid, as columns, and the converged mask of its pass.

    The columns are keyed by ``NUDD_SWEEP_COLUMNS``: epsilon and the values
    are float arrays over the grid, and m, d_min and eta are one value each.
    The distance bound Delta^2 + Delta and the leading term are rounded
    outward.
    """
    d_min = _check_point(d_min, grid, eta, m)
    eps = np.asarray(grid, dtype=float).reshape(-1)
    res = _nudd_tails(d_min, eps, eta, m)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = round_up((res.tail * res.tail + res.tail) * (1.0 + gamma(2)))
    values = (eps, m, d_min, eta, res.tail, bound, res.first)
    return dict(zip(NUDD_SWEEP_COLUMNS, values)), res.ok


def nudd_distance_bound(d_min: int, epsilon: float, eta: float, m: int) -> dict:
    """The bound at one eps: point 0 of ``nudd_sweep_cell``, keyed by
    ``NUDD_SWEEP_COLUMNS``.

    ``D_bound`` is the trace-norm distance bound Delta^2 + Delta, and every
    value is rounded outward.  Raises the NonConvergenceError of a point
    that fails ``series.cell_ok`` (``series.first_row``).
    """
    return first_row(*nudd_sweep_cell(m, d_min, eta, (epsilon,)))


def nudd_eps_window(
    eta: float, m: int, lo: float = 1e-4, hi: float = 1.0, points: int = 41
) -> tuple[float, ...]:
    """Epsilon grid rescaled into the representable regime for (eta, m).

    The tail sum behaves like exp(eps * (1 + gamma * eta)); for m = 10 and
    large eta that overflows doubles well before eps reaches 1.  Dividing the
    base grid by (1 + gamma * eta) keeps every cell of a preset sweep finite
    while preserving the grid shape, so curves for different eta panels stay
    comparable after rescaling the axis.
    """
    scale = 1.0 + gamma_factor(m) * eta
    return tuple(e / scale for e in default_eps_grid(lo, hi, points))


def preset_nudd_cells(name: str = "fig5") -> tuple[tuple[int, int, float], ...]:
    """Preset grid (fig5): m=10, eta panels {1e-4,1e-2,1,1e2}, d_min {5,10,20,40}."""
    if name != "fig5":
        raise ValueError(f"unknown preset {name!r}; expected fig5")
    return tuple((10, d, eta) for eta in _PANEL_ETAS for d in (5, 10, 20, 40))
