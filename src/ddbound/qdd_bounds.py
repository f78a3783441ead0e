"""Analytic error bounds for the quadratic (two-level nested) sequence.

The toggling-frame expansion of the joint evolution sorts every term into one
of eight parity sectors, indexed ``j = 4 p_x + 2 p_y + p_z`` by the parities
of the (x, y, z) letter counts.  Each sector's total weight is bounded by the
entire function

    S_j(eps, eta) = exp(eps) * h_x(eta_x*eps) * h_y(eta_y*eps) * h_z(eta_z*eps)

where ``h_alpha`` is sinh when the sector's alpha-parity is odd and cosh when
even.  ``_sector_series`` writes its Taylor series once, and everything else
here is derived from it: the tail sums ``Delta_d`` past a sequence's
suppression order together with their leading terms, per-channel norm bounds
``L_alpha``, and the trace-norm distance bound.  The closed form S_j and its
Taylor coefficients ``g_l`` are references for the tests
(``tests/closed_forms.py``).

``sweep_cell`` evaluates one cell, all six sector tails at every eps of its
grid, in one batched pass (``series.exp_series_tail``), and returns it as
columns and the converged mask, whose good points the one row rule
``series.cell_ok`` decides.  ``distance_bound`` is its one-point view, the
cell's row at one eps (``series.first_row``); ``delta_tail`` gives one
sector's tail Delta_d from the same pass.  Every reported value is rounded
outward, so each is an upper bound in floating point.

Dimensionless inputs throughout: ``eps = J_0 * T`` and ``eta_alpha =
J_alpha / J_0`` for bath coupling norms ``J``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .sequences import _validate_orders
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
    "EtaVector",
    "DecouplingOrders",
    "CASE_OF_CHANNEL",
    "decoupling_orders",
    "delta_tail",
    "distance_bound",
    "sweep_cell",
    "preset_cells",
    "default_eps_grid",
    "QDD_SWEEP_COLUMNS",
]

#: Map error channel -> the two parity sectors whose tails bound it.
CASE_OF_CHANNEL = {"x": (3, 4), "y": (2, 5), "z": (1, 6)}
_CHANNEL_SECTORS = np.array([j for pair in CASE_OF_CHANNEL.values() for j in pair])

#: The eight sign triples (s_x, s_y, s_z) of the sector decomposition.
_SIGNS = tuple(itertools.product((1.0, -1.0), repeat=3))

_MODES = ("analytic", "numeric-footnote")

QDD_SWEEP_COLUMNS = (
    "epsilon", "N1", "N2", "eta_x", "eta_y", "eta_z",
    "d_x", "d_y", "d_z", "L_x", "L_y", "L_z", "D_bound", "D_leading",
)


def _case_parities(j: int) -> tuple[int, int, int]:
    """Parity triple (p_x, p_y, p_z) of sector ``j``, an integer in 0..7."""
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 0 <= j <= 7:
        raise ValueError(f"sector index must be in 0..7, got {j!r}")
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


def decoupling_orders(n1: int, n2: int, mode: str = "analytic") -> DecouplingOrders:
    """Suppression orders of the quadratic sequence by parity of (N1, N2).

    ``d_x = N1`` always.  ``d_y`` and ``d_z`` depend on the parities; in
    ``numeric-footnote`` mode the odd-N1 z order uses the numerically observed
    ``min(2*N1+1, N2)`` instead of the proven ``min(N1+1, N2)``.  The footnote
    value is not backed by the analytic proof; bounds derived from it are
    labeled by their mode.
    """
    n1, n2 = _validate_orders((n1, n2))
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


#: Row j: which of (x, y, z) carry a sinh factor in sector j.
_SINH = np.array([_case_parities(j) for j in range(8)], dtype=bool)

#: Row j: the eight weights s_x^p_x s_y^p_y s_z^p_z / 8 of sector j.
_SECTOR_WEIGHTS = np.prod(np.where(_SINH[:, None, :], _SIGNS, 1.0), axis=2) / 8.0


def _sign_rates(etas) -> np.ndarray:
    """1 + s_x eta_x + s_y eta_y + s_z eta_z over the eight sign triples.

    ``etas`` is (3,) or (rows, 3); the result is (8,) or (rows, 8).
    """
    etas = np.asarray(etas, dtype=float)
    signs = np.array(_SIGNS)
    out = 1.0
    with np.errstate(over="ignore"):  # inf, for exp_series_tail to reject
        for a in range(3):
            out = out + signs[:, a] * etas[..., a, None]
    return out


def _sector_series(j, epsilon, eta: EtaVector):
    """Rates and weights of sector j's Taylor series in the shared tail format.

    ``epsilon`` may be an array of eps points and ``j`` one of sectors: the
    rates are then (eps, 8), one group of the tail pass per eps, and the
    weights (sector, 8), one slot per sector.
    """
    eps = np.asarray(epsilon, dtype=float)[..., None]
    return scale_rates(eps, _sign_rates(eta.as_tuple())), _SECTOR_WEIGHTS[j]


def _rate_err(epsilon, etas) -> np.ndarray:
    """Bound on the rounding of eps * (1 + s_x eta_x + s_y eta_y + s_z eta_z)."""
    with np.errstate(over="ignore"):
        return scale_rates(gamma(5) * epsilon, 1.0 + np.sum(etas, axis=-1))


def _sinh_product(x, expand, length: int) -> np.ndarray:
    """Columns 0..length-1 of the eps series of each row's sinh product.

    Row i is the product of sinh(x[i, a] eps) over the axes a flagged in
    ``expand[i]``, in axis order (1 where none is).  A sinh series has only
    odd powers, x^k / k! at odd k, so after j factors the product is nonzero
    only on columns of parity j mod 2.  The first factor is therefore its
    power row with the even columns set to 0, with no convolution, and each
    later factor convolves only the columns of the parity it reaches.  Every
    coefficient is summed sequentially in ascending k; the terms left out
    are exact zeros, so the bits are those of convolving each factor over
    every column (``tests/closed_forms.py::sinh_product``).
    """
    rows, axes = np.nonzero(expand)
    rank = (np.cumsum(expand, axis=1) - 1)[rows, axes]  # factor index within its row
    f = power_coeffs(x[rows, axes], length)[:, 1::2]  # odd powers k = 2t + 1
    p = np.zeros((expand.shape[0], length))
    p[~expand.any(axis=1), 0] = 1.0
    first = rank == 0
    p[rows[first], 1::2] = f[first]
    for j in range(1, 1 + rank.max(initial=0)):
        q = j % 2  # the parity of the product of j factors
        at = rank == j
        rr, fj = rows[at], f[at]
        below = p[rr, q::2]  # column q + 2i
        out = np.zeros((rr.size, len(range(q + 1, length, 2))))  # column q + 1 + 2s
        # past the last nonzero power (underflow) every product is 0
        with np.errstate(under="ignore"):
            for t in range(1 + np.flatnonzero(fj.any(axis=0)).max(initial=-1)):
                out[:, t:] += fj[:, t, None] * below[:, : out.shape[1] - t]
        p[rr, q::2] = 0.0
        p[rr, q + 1 :: 2] = out
    return p


def _sector_nonneg(sectors, orders, eps, etas, expand) -> SeriesTail:
    """Sector tails in the nonnegative form.

    The sinh factors flagged in ``expand`` (rows, 3) become their series in
    eps, with coefficients (eta_a eps)^k / k! at odd k; their product P
    (``_sinh_product``) has nonnegative coefficients, each at most X^k / k!
    with X the sum of the expanded arguments, and is nonzero only on the
    columns of the parity of its factor count, so the first factor needs no
    convolution.  The rest of the product, e^eps times the remaining cosh
    and sinh factors, is the sector series with the expanded components set
    to zero, whose terms are nonnegative.
    """
    x = eps[:, None] * etas
    p = _sinh_product(x, expand, coeff_count(orders))
    big_x = round_up(np.sum(np.where(expand, x, 0.0), axis=1) * (1.0 + gamma(3)))
    rest_eta = np.where(expand, 0.0, etas)
    rest_j = sectors & ~(expand @ np.array([4, 2, 1]))
    rates = eps[:, None] * _sign_rates(rest_eta)
    return product_tail(
        p, big_x, rates, _SECTOR_WEIGHTS[rest_j], orders, _rate_err(eps, rest_eta)
    )


def _sector_tails(sectors, orders, eps, eta: EtaVector) -> SeriesTail:
    """Outward-rounded tails Delta_d^(j)(eps) as (eps, sector) arrays, from one pass.

    Each eps is a group of the pass and each sector j, with its order d, a
    slot.  Sectors whose sinh factor sits on a vanishing eta component are
    identically zero and stay out of the pass; at eps = 0 every rate is 0,
    and the pass gives 0.  A loose series with a sinh factor at eta_a <= 1
    (where the signed weights cancel) also takes the nonnegative form, which
    expands those factors, and keeps the lower of the two bounds.
    """
    sectors, orders = np.asarray(sectors), np.asarray(orders)
    eps = np.asarray(eps, dtype=float)
    etas = np.array(eta.as_tuple())
    sinh = _SINH[sectors]
    live = np.flatnonzero(~(sinh & (etas == 0.0)).any(axis=1))
    if live.size == 0:
        return SeriesTail.zeros((eps.size, sectors.size))
    rates, weights = _sector_series(sectors[live], eps, eta)
    res = exp_series_tail(rates, weights, orders[live], _rate_err(eps, etas))
    out = res
    if live.size < sectors.size:
        out = SeriesTail.zeros((eps.size, sectors.size))
        for whole, part in zip(out, res):
            whole[:, live] = part
    expand = sinh & (etas <= 1.0)
    at, slot = np.nonzero(loose(res) & expand[live].any(axis=1))
    if at.size:
        js = live[slot]
        alt = _sector_nonneg(sectors[js], orders[js], eps[at], etas, expand[js])
        keep_lower(out, (at, js), alt)
    return out


def delta_tail(j: int, d: int, epsilon: float, eta: EtaVector) -> tuple[float, float]:
    """Tail Delta_d^(j) = sum_{n > d} g_n^(j)(eta) * eps^n and its leading term.

    Returns upper bounds on ``(Delta_d^(j), g_{d+1}^(j) * eps^(d+1))`` from one
    pass: a one-point view of ``_sector_tails``.  Raises NonConvergenceError
    for pathological inputs (see series.exp_series_tail).
    """
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    _case_parities(j)  # rejects a sector index outside 0..7
    (d,) = _validate_orders([d])
    res = _sector_tails([j], [d], [epsilon], eta)
    if not res.ok[0, 0]:
        raise not_converged(epsilon)
    return float(res.tail[0, 0]), float(res.first[0, 0])


def sweep_cell(
    n1: int, n2: int, eta: EtaVector, grid, mode: str = "analytic"
) -> tuple[dict, np.ndarray]:
    """One cell over an eps grid, as columns, and the converged mask of its pass.

    The columns are keyed by ``QDD_SWEEP_COLUMNS``: epsilon and the values
    are float arrays over the grid, and N1, N2, eta and the orders are one
    value each.  All six sector tails at every grid point come from one
    batched pass.  Each channel's L_alpha is the sum of its two sector tails,
    rounded up; the distance bound, a polynomial in the L_alpha with
    nonnegative coefficients, and the leading term, the sum of the six first
    terms, are widened by their rounding.
    """
    orders = decoupling_orders(n1, n2, mode)
    eps = np.asarray(grid, dtype=float).reshape(-1)
    if not (eps >= 0).all():
        raise ValueError("epsilon must be >= 0")
    ds = [orders.for_channel(ch) for ch in CASE_OF_CHANNEL for _ in (0, 1)]
    res = _sector_tails(_CHANNEL_SECTORS, ds, eps, eta)
    with np.errstate(over="ignore", invalid="ignore"):
        lx, ly, lz = round_up(res.tail[:, 0::2] + res.tail[:, 1::2]).T
        bound = lx + ly + lz + lx * lx + ly * ly + lz * lz + lx * ly + ly * lz + lx * lz
        bound = round_up(bound * (1.0 + gamma(12)))
        leading = round_up(res.first.sum(axis=1) * (1.0 + gamma(6)))
    values = (eps, n1, n2, *eta.as_tuple(), *orders.as_tuple(), lx, ly, lz, bound, leading)
    return dict(zip(QDD_SWEEP_COLUMNS, values)), res.ok.all(axis=1)


def distance_bound(
    n1: int, n2: int, epsilon: float, eta: EtaVector, mode: str = "analytic"
) -> dict:
    """The bound at one eps: point 0 of ``sweep_cell``, keyed by ``QDD_SWEEP_COLUMNS``.

    Each channel's norm bound L_alpha is the sum of its two parity-sector
    tails (``CASE_OF_CHANNEL``) past the channel's suppression order, and
    ``D_bound``, the trace-norm distance bound between protected and
    uncoupled qubit states, is

        L_x + L_y + L_z + L_x^2 + L_y^2 + L_z^2 + L_x L_y + L_y L_z + L_x L_z.

    ``D_leading`` sums the first term of each of the six tails, that is
    ``[g_{d+1}^(a) + g_{d+1}^(b)] * eps^(d+1)`` over the channels.  Every
    value is rounded outward, so each is an upper bound.  Raises the
    NonConvergenceError of a point that fails ``series.cell_ok``
    (``series.first_row``).
    """
    return first_row(*sweep_cell(n1, n2, eta, (epsilon,), mode))


def default_eps_grid(
    lo: float = 1e-4, hi: float = 1.0, points: int = 41
) -> tuple[float, ...]:
    """Log-spaced epsilon grid from ``lo`` to ``hi``, both exactly.

    The points between are powers of 10 and may round past an end, so they
    are held within [lo, hi]; the grid never decreases.
    """
    if not (0 < lo < hi < math.inf) or points < 2:
        raise ValueError("need finite 0 < lo < hi and at least two points")
    grid = np.logspace(math.log10(lo), math.log10(hi), points)
    grid[[0, -1]] = lo, hi
    return tuple(np.clip(grid, lo, hi).tolist())


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
