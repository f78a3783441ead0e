"""Analytic error bounds for the quadratic (two-level nested) sequence.

The toggling-frame expansion of the joint evolution sorts every term into one
of eight parity sectors, indexed ``j = 4 p_x + 2 p_y + p_z`` by the parities
of the (x, y, z) letter counts.  Each sector's total weight is bounded by the
entire function

    S_j(eps, eta) = exp(eps) * h_x(eta_x*eps) * h_y(eta_y*eps) * h_z(eta_z*eps)

where ``h_alpha`` is sinh when the sector's alpha-parity is odd and cosh when
even.  ``_sector_series`` writes its Taylor series once, and everything else
here is derived from it: the coefficients ``g_l``, the tail sums ``Delta_d``
past a sequence's suppression order together with their leading terms,
per-channel norm bounds ``L_alpha``, and the trace-norm distance bound.

Dimensionless inputs throughout: ``eps = J_0 * T`` and ``eta_alpha =
J_alpha / J_0`` for bath coupling norms ``J``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .series import check_finite, check_rel_tol, exp_series_coeff, exp_series_tail

__all__ = [
    "EtaVector",
    "DecouplingOrders",
    "ChannelBounds",
    "BoundReport",
    "CASE_OF_CHANNEL",
    "case_parities",
    "decoupling_orders",
    "bounding_function",
    "g_poly",
    "delta_tail",
    "distance_bound",
    "sweep_row",
    "preset_cells",
    "default_eps_grid",
    "QDD_SWEEP_COLUMNS",
]

#: Map error channel -> the two parity sectors whose tails bound it.
CASE_OF_CHANNEL = {"x": (3, 4), "y": (2, 5), "z": (1, 6)}

#: The eight sign triples (s_x, s_y, s_z) of the sector decomposition.
_SIGNS = tuple(itertools.product((1.0, -1.0), repeat=3))

_MODES = ("analytic", "numeric-footnote")

QDD_SWEEP_COLUMNS = (
    "epsilon", "N1", "N2", "eta_x", "eta_y", "eta_z",
    "d_x", "d_y", "d_z", "L_x", "L_y", "L_z", "D_bound", "D_leading",
)


def case_parities(j: int) -> tuple[int, int, int]:
    """Parity triple (p_x, p_y, p_z) of sector ``j`` in 0..7."""
    if not 0 <= j <= 7:
        raise ValueError("sector index must be in 0..7")
    return ((j >> 2) & 1, (j >> 1) & 1, j & 1)


@dataclass(frozen=True)
class EtaVector:
    """Dimensionless coupling ratios eta_alpha = J_alpha / J_0, all >= 0."""

    eta_x: float
    eta_y: float
    eta_z: float

    def __post_init__(self) -> None:
        for v in self.as_tuple():
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError("eta components must be finite and >= 0")

    @classmethod
    def isotropic(cls, eta: float) -> "EtaVector":
        return cls(eta, eta, eta)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.eta_x, self.eta_y, self.eta_z)

    @property
    def total(self) -> float:
        return self.eta_x + self.eta_y + self.eta_z


@dataclass(frozen=True)
class DecouplingOrders:
    """Guaranteed suppression orders: channel-alpha error is O(T^(d_alpha+1))."""

    d_x: int
    d_y: int
    d_z: int

    def for_channel(self, channel: str) -> int:
        return {"x": self.d_x, "y": self.d_y, "z": self.d_z}[channel]

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.d_x, self.d_y, self.d_z)


@dataclass(frozen=True)
class ChannelBounds:
    """Upper bounds L_alpha >= ||A_alpha(T)|| on the channel operator norms."""

    L_x: float
    L_y: float
    L_z: float

    def for_channel(self, channel: str) -> float:
        return {"x": self.L_x, "y": self.L_y, "z": self.L_z}[channel]

    @property
    def total(self) -> float:
        return self.L_x + self.L_y + self.L_z


@dataclass(frozen=True)
class BoundReport:
    """Full evaluation of the distance bound at one (N1, N2, eps, eta) point."""

    epsilon: float
    eta: EtaVector
    orders: DecouplingOrders
    channel_bounds: ChannelBounds
    distance_bound: float
    leading_term: float
    mode: str = "analytic"


def decoupling_orders(n1: int, n2: int, mode: str = "analytic") -> DecouplingOrders:
    """Suppression orders of the quadratic sequence by parity of (N1, N2).

    ``d_x = N1`` always.  ``d_y`` and ``d_z`` depend on the parities; in
    ``numeric-footnote`` mode the odd-N1 z order uses the numerically observed
    ``min(2*N1+1, N2)`` instead of the proven ``min(N1+1, N2)``.  The footnote
    value is not backed by the analytic proof; bounds derived from it are
    labeled by their mode.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("orders must be >= 0")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    d_x = n1
    if n1 % 2 == 0:
        d_y = max(n1, n2) if n2 % 2 == 0 else max(n1 + 1, n2)
        d_z = n2
    else:
        d_y = n1 if n2 % 2 == 0 else n1 + 1
        if mode == "numeric-footnote":
            d_z = min(2 * n1 + 1, n2)
        else:
            d_z = min(n1 + 1, n2)
    return DecouplingOrders(d_x, d_y, d_z)


def bounding_function(j: int, epsilon: float, eta: EtaVector) -> float:
    """Sector bound S_j = e^eps * prod_alpha (sinh|cosh)(eta_alpha * eps)."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    parities = case_parities(j)
    out = math.exp(epsilon)
    for p, e in zip(parities, eta.as_tuple()):
        h = math.sinh if p else math.cosh
        out *= h(e * epsilon)
    return out


def g_poly(j: int, l: int, eta: EtaVector) -> float:
    """Taylor coefficient of S_j: the signed eight-term sum over (+-1)^3.

    g_l^(j) = (1/(8*l!)) * sum_s s_x^p_x s_y^p_y s_z^p_z
              * (1 + s_x eta_x + s_y eta_y + s_z eta_z)^l,

    the l-th term of ``_sector_series(j, 1, eta)``.
    """
    return exp_series_coeff(*_sector_series(j, 1.0, eta), l)


def _sector_series(j: int, epsilon: float, eta: EtaVector):
    """Rates and weights of sector j's Taylor series in the shared tail format."""
    p_x, p_y, p_z = case_parities(j)
    ex, ey, ez = eta.as_tuple()
    rates, weights = [], []
    for s_x, s_y, s_z in _SIGNS:
        rates.append(epsilon * (1.0 + s_x * ex + s_y * ey + s_z * ez))
        weights.append(
            (s_x if p_x else 1.0) * (s_y if p_y else 1.0) * (s_z if p_z else 1.0) / 8.0
        )
    return rates, weights


def delta_tail(
    j: int, d: int, epsilon: float, eta: EtaVector, rel_tol: float = 1e-15
) -> tuple[float, float]:
    """Tail Delta_d^(j) = sum_{n > d} g_n^(j)(eta) * eps^n and its leading term.

    Returns ``(Delta_d^(j), g_{d+1}^(j) * eps^(d+1))`` from one pass.
    Sectors whose sinh factor sits on a vanishing eta component are
    identically zero and short-circuit.  Raises NonConvergenceError for
    pathological inputs (see series.exp_series_tail).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    check_rel_tol(rel_tol)
    if epsilon == 0.0:
        return 0.0, 0.0
    parities = case_parities(j)
    if any(p and e == 0.0 for p, e in zip(parities, eta.as_tuple())):
        return 0.0, 0.0
    rates, weights = _sector_series(j, epsilon, eta)
    return exp_series_tail(rates, weights, d, rel_tol)


def distance_bound(
    n1: int,
    n2: int,
    epsilon: float,
    eta: EtaVector,
    mode: str = "analytic",
    rel_tol: float = 1e-15,
) -> BoundReport:
    """Trace-norm distance bound between protected and uncoupled qubit states.

    Each channel's norm bound L_alpha is the sum of its two parity-sector
    tails (``CASE_OF_CHANNEL``) past the channel's suppression order.  The
    bound is evaluated in expanded form over the six sector tails: all single
    terms, all squares, same-channel cross terms twice, and every
    mixed-channel product once.  Algebraically this equals

        L_x + L_y + L_z + L_x^2 + L_y^2 + L_z^2 + L_x L_y + L_y L_z + L_x L_z.

    The leading term sums the first term of each of the six tails, that is
    ``[g_{d+1}^(a) + g_{d+1}^(b)] * eps^(d+1)`` over the channels.  Raises
    NonConvergenceError if any reported value overflows double range.
    """
    orders = decoupling_orders(n1, n2, mode)
    flat: list[float] = []
    leading = 0.0
    for ch, sectors in CASE_OF_CHANNEL.items():
        d = orders.for_channel(ch)
        for j in sectors:
            tail, first = delta_tail(j, d, epsilon, eta, rel_tol)
            flat.append(tail)
            leading += first
    bound = 0.0
    for a in flat:
        bound += a
    for i, a in enumerate(flat):
        for k, b in enumerate(flat):
            if i == k:
                bound += a * b
            elif i < k:
                pair_same_channel = (i // 2) == (k // 2)
                bound += (2.0 if pair_same_channel else 1.0) * a * b
    cb = ChannelBounds(*(flat[i] + flat[i + 1] for i in (0, 2, 4)))
    check_finite(L_x=cb.L_x, L_y=cb.L_y, L_z=cb.L_z, D_bound=bound, D_leading=leading)
    return BoundReport(
        epsilon=epsilon,
        eta=eta,
        orders=orders,
        channel_bounds=cb,
        distance_bound=bound,
        leading_term=leading,
        mode=mode,
    )


def default_eps_grid(
    lo: float = 1e-4, hi: float = 1.0, points: int = 41
) -> tuple[float, ...]:
    """Log-spaced epsilon grid, endpoints included."""
    if not (0 < lo < hi) or points < 2:
        raise ValueError("need 0 < lo < hi and at least two points")
    return tuple(float(x) for x in np.logspace(math.log10(lo), math.log10(hi), points))


_PANEL_ETAS = (1e-4, 1e-2, 1.0, 1e2)


def preset_cells(name: str) -> tuple[tuple[int, int, EtaVector], ...]:
    """Named preset grids used by the command-line sweeps.

    fig2: isotropic eta panels {1e-4, 1e-2, 1, 1e2} x N1 = N2 = N in
    {2, 6, 16, 34}.  fig3/fig4: eta_z fixed at 1e-2, each eta_x = eta_y panel
    paired with one N1 (fig3: N2 = 10, N1 in {2, 10, 18, 34}; fig4: N2 = 9,
    N1 in {3, 10, 19, 34}) to compare order parities.
    """
    if name == "fig2":
        return tuple(
            (n, n, EtaVector.isotropic(eta))
            for eta in _PANEL_ETAS
            for n in (2, 6, 16, 34)
        )
    if name == "fig3":
        pairs = zip(_PANEL_ETAS, (2, 10, 18, 34))
        return tuple((n1, 10, EtaVector(e, e, 1e-2)) for e, n1 in pairs)
    if name == "fig4":
        pairs = zip(_PANEL_ETAS, (3, 10, 19, 34))
        return tuple((n1, 9, EtaVector(e, e, 1e-2)) for e, n1 in pairs)
    raise ValueError(f"unknown preset {name!r}; expected fig2, fig3, or fig4")


def sweep_row(
    n1: int,
    n2: int,
    eps: float,
    eta: EtaVector,
    mode: str = "analytic",
    rel_tol: float = 1e-15,
) -> dict:
    """One grid point of a bounds sweep, keyed by ``QDD_SWEEP_COLUMNS``."""
    report = distance_bound(n1, n2, eps, eta, mode, rel_tol)
    orders = report.orders
    cb = report.channel_bounds
    return {
        "epsilon": eps,
        "N1": n1,
        "N2": n2,
        "eta_x": eta.eta_x,
        "eta_y": eta.eta_y,
        "eta_z": eta.eta_z,
        "d_x": orders.d_x,
        "d_y": orders.d_y,
        "d_z": orders.d_z,
        "L_x": cb.L_x,
        "L_y": cb.L_y,
        "L_z": cb.L_z,
        "D_bound": report.distance_bound,
        "D_leading": report.leading_term,
    }
