"""Independent reference values for the analytic bound curves.

The benchmark checks every ``bounds qdd`` / ``bounds nudd`` row against these
values.  They are derived from the closed forms, not from ``ddbound``:

* QDD sector ``j`` (parities ``p = (p_x, p_y, p_z)``) is bounded by
  ``S_j(x) = e^x * prod_a h_a(eta_a x)`` with ``h = sinh`` on odd parity and
  ``cosh`` on even.  All four factors have nonnegative Taylor coefficients, so
  the coefficients ``g_n`` of ``S_j`` are a convolution of nonnegative
  sequences and every tail ``sum_{n>d} g_n eps^n`` is a sum of nonnegative
  terms: no cancellation, relative error a few ulp per term.
* NUDD uses ``Delta = c * sum_{l>d} (a^l - b^l)/l!`` with ``a = eps(1 + gamma
  eta)``, ``b = eps(1 - eta)`` and ``c = gamma/(gamma + 1)``; each term is
  evaluated as ``a^l/l! * (1 - (b/a)^l)``, again without cancellation.

``make_reference.py`` recomputes the preset cells with 60-digit mpmath and
the benchmark's tests compare both.
"""

from __future__ import annotations

import math

import numpy as np

#: channel -> the two parity sectors whose tails bound it
CASE_OF_CHANNEL = {"x": (3, 4), "y": (2, 5), "z": (1, 6)}


def qdd_orders(n1: int, n2: int) -> tuple[int, int, int]:
    """Proven suppression orders (d_x, d_y, d_z) of the quadratic sequence."""
    if n1 % 2 == 0:
        d_y = max(n1, n2) if n2 % 2 == 0 else max(n1 + 1, n2)
        return n1, d_y, n2
    d_y = n1 if n2 % 2 == 0 else n1 + 1
    return n1, d_y, min(n1 + 1, n2)


def parities(j: int) -> tuple[int, int, int]:
    """Parity triple (p_x, p_y, p_z) of QDD sector j."""
    return (j >> 2) & 1, (j >> 1) & 1, j & 1


def _log_coeffs(rate: float, length: int, parity: int | None) -> np.ndarray:
    """log of rate^n / n! for n < length; -inf where the parity excludes n."""
    n = np.arange(length, dtype=float)
    with np.errstate(divide="ignore"):
        out = n * math.log(rate) - np.array([math.lgamma(k + 1.0) for k in range(length)])
    if parity is not None:
        out[(np.arange(length) % 2) != parity] = -np.inf
    return out


def _sector_coeffs(j: int, eta: tuple[float, float, float], length: int) -> np.ndarray:
    """Taylor coefficients g_0..g_{length-1} of S_j by nonnegative convolution.

    For eta <= 1e2 every coefficient stays below e^(1 + 3e2) ~ 1e130, so plain
    doubles neither overflow nor lose anything that matters to underflow.
    """
    acc = np.exp(_log_coeffs(1.0, length, None))
    for p, e in zip(parities(j), eta):
        if e == 0.0:
            if p:  # sinh(0) == 0: the whole sector vanishes
                return np.zeros(length)
            continue
        acc = np.convolve(acc, np.exp(_log_coeffs(e, length, p)))[:length]
    return acc


def qdd_rows(n1: int, n2: int, eta: tuple[float, float, float], eps_grid) -> list[dict]:
    """Reference L_x, L_y, L_z, D_bound, D_leading at each epsilon."""
    eps = np.asarray(eps_grid, dtype=float)
    orders = dict(zip("xyz", qdd_orders(n1, n2)))
    rate = float(eps.max()) * (1.0 + sum(eta))
    length = max(orders.values()) + 2 + int(2 * math.e * rate) + 80
    log_eps = np.log(eps)[:, None] * np.arange(length)[None, :]
    L: dict[str, np.ndarray] = {}
    leading = np.zeros(eps.size)
    for ch, sectors in CASE_OF_CHANNEL.items():
        d = orders[ch]
        total = np.zeros(eps.size)
        for j in sectors:
            g = _sector_coeffs(j, eta, length)
            with np.errstate(divide="ignore", under="ignore"):
                terms = np.exp(np.log(g)[None, :] + log_eps)
            total += terms[:, d + 1:].sum(axis=1)
            leading += terms[:, d + 1]
        L[ch] = total
    lx, ly, lz = L["x"], L["y"], L["z"]
    d_bound = lx + ly + lz + lx * lx + ly * ly + lz * lz + lx * ly + ly * lz + lx * lz
    return [
        {
            "epsilon": float(eps[i]),
            "d_x": orders["x"],
            "d_y": orders["y"],
            "d_z": orders["z"],
            "L_x": float(lx[i]),
            "L_y": float(ly[i]),
            "L_z": float(lz[i]),
            "D_bound": float(d_bound[i]),
            "D_leading": float(leading[i]),
        }
        for i in range(eps.size)
    ]


def _nudd_term(l: int, a: float, r: float, c: float) -> float:
    """c * a^l / l! * (1 - r^l) with r = b/a, evaluated without cancellation."""
    if r > 0.0:
        factor = -math.expm1(l * math.log(r))
    else:
        factor = 1.0 - r**l
    return c * math.exp(l * math.log(a) - math.lgamma(l + 1.0)) * factor


def nudd_rows(m: int, d_min: int, eta: float, eps_grid) -> list[dict]:
    """Reference Delta, D_bound, D_leading at each epsilon."""
    gamma = 4**m - 1
    c = gamma / (gamma + 1)
    out = []
    for e in eps_grid:
        a = e * (1.0 + gamma * eta)
        r = (1.0 - eta) / (1.0 + gamma * eta)
        lead = _nudd_term(d_min + 1, a, r, c)
        delta = 0.0
        l = d_min + 1
        while True:
            t = _nudd_term(l, a, r, c)
            delta += t
            if l > 2 * a and t <= 1e-18 * delta:
                break
            l += 1
        out.append(
            {
                "epsilon": float(e),
                "Delta": delta,
                "D_bound": delta * delta + delta,
                "D_leading": lead,
            }
        )
    return out
