"""Analytic error bounds for general nested (multi-qubit) sequences.

For ``m`` protected qubits all ``gamma = 4^m - 1`` non-identity coupling
channels are collapsed onto a single norm scale ``J1`` (their maximum), which
trades channel resolution for a closed two-parameter theory.  The sum of all
error-word weights is bounded by the entire function

    S_K(T) = gamma * e^(J0 T) * (e^(gamma J1 T) - e^(-J1 T)) / (gamma + 1),

whose Taylor tail past the sequence's minimum suppression order bounds the
total error-channel norm; the trace-norm distance bound is then
``Delta^2 + Delta``.  ``_nudd_series`` writes that series once; the tail, its
leading term and the coefficients ``g_l`` all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qdd_bounds import default_eps_grid
from .series import check_finite, check_rel_tol, exp_series_coeff, exp_series_tail

__all__ = [
    "NuddBoundReport",
    "gamma_factor",
    "d_min_for_orders",
    "nudd_g",
    "nudd_delta",
    "nudd_distance_bound",
    "nudd_eps_window",
    "nudd_sweep_row",
    "preset_nudd_cells",
    "NUDD_SWEEP_COLUMNS",
]

_MAX_M = 31

NUDD_SWEEP_COLUMNS = ("epsilon", "m", "d_min", "eta", "Delta", "D_bound", "D_leading")


def gamma_factor(m: int) -> int:
    """Number of non-identity channels, 4^m - 1, as an exact integer.

    Rejects m outside 1..31: beyond that 4^m exceeds any simulable regime and
    would silently lose integer exactness in downstream floats.
    """
    if not 1 <= m <= _MAX_M:
        raise ValueError(f"qubit count m must be in 1..{_MAX_M}")
    return 4**m - 1


def d_min_for_orders(orders) -> int:
    """Guaranteed minimum suppression order of a nested schedule.

    This is the minimum of the *requested* per-level orders.  Levels with odd
    order carry an appended frame-closing pulse (an even pulse count), but the
    appended pulse sits at the interval end and cannot raise the suppression
    order: the guaranteed order of an odd-N level is still N.
    """
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 0 for n in orders):
        raise ValueError("orders must be a nonempty sequence of integers >= 0")
    if len(orders) % 2:
        raise ValueError("orders must pair a z and an x level per qubit")
    return min(orders)


@dataclass(frozen=True)
class NuddBoundReport:
    """Distance-bound evaluation at one (m, d_min, epsilon, eta) point."""

    m: int
    d_min: int
    epsilon: float
    eta: float
    delta: float
    distance_bound: float
    leading_term: float


def _nudd_series(epsilon: float, eta: float, m: int):
    """Rates and weights of S_K's Taylor series in epsilon, in the tail format.

    S_K = (1 - 4^-m) * (e^(eps (1 + gamma eta)) - e^(eps (1 - eta))) in units
    of J0 = 1, with gamma = 4^m - 1.
    """
    g = gamma_factor(m)
    c = g / (g + 1)
    return (epsilon * (1.0 + g * eta), epsilon * (1.0 - eta)), (c, -c)


def nudd_g(l: int, eta: float, m: int) -> float:
    """Dimensionless Taylor coefficient of S_K in epsilon.

    g_l = (1 - 4^-m) * ((1 + gamma*eta)^l - (1 - eta)^l) / l!; g_0 = 0 and
    g_1 collapses to gamma*eta.  Nonnegative for every l, since
    1 + gamma*eta >= |1 - eta|.  With ``eps = J0*T`` and ``eta = J1/J0``,
    g_l * eps^l is the T^l term of S_K(T).  The leading term
    g_{d_min+1} * eps^(d_min+1) of a bound comes from ``nudd_delta``, which
    folds epsilon into the running product before it can overflow.
    """
    return exp_series_coeff(*_nudd_series(1.0, eta, m), l)


def nudd_delta(
    d_min: int, epsilon: float, eta: float, m: int, rel_tol: float = 1e-15
) -> tuple[float, float]:
    """Tail Delta_{d_min} = sum_{l > d_min} g_l(eta, m) * eps^l and its leading term.

    Returns ``(Delta_{d_min}, g_{d_min+1} * eps^(d_min+1))`` from one pass.
    """
    if d_min < 0:
        raise ValueError("d_min must be >= 0")
    if epsilon < 0 or eta < 0:
        raise ValueError("epsilon and eta must be >= 0")
    check_rel_tol(rel_tol)
    if epsilon == 0.0 or eta == 0.0:
        return 0.0, 0.0
    rates, weights = _nudd_series(epsilon, eta, m)
    return exp_series_tail(rates, weights, d_min, rel_tol)


def nudd_distance_bound(
    d_min: int, epsilon: float, eta: float, m: int, rel_tol: float = 1e-15
) -> NuddBoundReport:
    """Trace-norm distance bound Delta^2 + Delta for a nested sequence.

    Raises NonConvergenceError if a reported value overflows double range.
    """
    delta, leading = nudd_delta(d_min, epsilon, eta, m, rel_tol)
    bound = delta * delta + delta
    check_finite(Delta=delta, D_bound=bound, D_leading=leading)
    return NuddBoundReport(
        m=m,
        d_min=d_min,
        epsilon=epsilon,
        eta=eta,
        delta=delta,
        distance_bound=bound,
        leading_term=leading,
    )


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
    return tuple(
        (10, d, eta) for eta in (1e-4, 1e-2, 1.0, 1e2) for d in (5, 10, 20, 40)
    )


def nudd_sweep_row(
    m: int, d_min: int, eps: float, eta: float, rel_tol: float = 1e-15
) -> dict:
    """One grid point of a nested-bound sweep, keyed by ``NUDD_SWEEP_COLUMNS``."""
    rep = nudd_distance_bound(d_min, eps, eta, m, rel_tol)
    return {
        "epsilon": eps,
        "m": m,
        "d_min": d_min,
        "eta": eta,
        "Delta": rep.delta,
        "D_bound": rep.distance_bound,
        "D_leading": rep.leading_term,
    }
