"""Closed forms and word-by-word values that the tests check the library against.

The library sums each bound as a Taylor tail and never evaluates these
entire functions or their coefficients themselves, and it reads word
integrals a whole signature level at a time, so these references live with
the tests that use them.
"""

import math

import numpy as np

from ddbound.dyson import _LETTERS, _MAX_DEPTH, _read_level, signature
from ddbound.nudd_bounds import _nudd_series, gamma_factor
from ddbound.qdd_bounds import _case_parities
from ddbound.series import power_coeffs


def bounding_function(j, epsilon, eta):
    """Sector bound S_j = e^eps * prod_alpha (sinh|cosh)(eta_alpha * eps)."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    parities = _case_parities(j)
    out = math.exp(epsilon)
    for p, e in zip(parities, eta.as_tuple()):
        h = math.sinh if p else math.cosh
        out *= h(e * epsilon)
    return out


def scaled_bounding_function(j, epsilon, eta):
    """S_j * exp(-eps*(1 + eta_x + eta_y + eta_z)), stable for any magnitude.

    Each factor is (1 +/- exp(-2*eta_alpha*eps))/2 in [0, 1], so the value is
    representable even where S_j itself overflows; the eight sector values sum
    to exactly 1.
    """
    out = 1.0
    for p, e in zip(_case_parities(j), eta.as_tuple()):
        damped = math.exp(-2.0 * e * epsilon)
        out *= (1.0 - damped if p else 1.0 + damped) / 2.0
    return out


def g_poly(j, l, eta):
    """Taylor coefficient of S_j, the signed eight-term sum over (+-1)^3,

    g_l^(j) = (1/(8*l!)) * sum_s s_x^p_x s_y^p_y s_z^p_z
              * (1 + s_x eta_x + s_y eta_y + s_z eta_z)^l,

    the l-th term of ``qdd_bounds._sector_series(j, 1, eta)``.  It is
    evaluated as the eps^l coefficient of e^eps times the sinh/cosh factors of
    ``bounding_function``: a convolution of their nonnegative coefficients 1/k!
    and eta_a^k/k! (odd k for sinh, even k for cosh), so it is never negative
    in floating point and is exactly 0 where a sinh axis has eta_a = 0.  A
    value beyond double range is non-finite.
    """
    parities = _case_parities(j)  # rejects a sector index outside 0..7
    if l < 0:
        raise ValueError("l must be >= 0")
    coeffs = power_coeffs([1.0, *eta.as_tuple()], l + 1)
    odd = np.arange(l + 1) % 2
    out = coeffs[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for row, p in zip(coeffs[1:], parities):
            out = np.convolve(out, np.where(odd == p, row, 0.0))[: l + 1]
    return float(out[l])


def nudd_g(l, eta, m):
    """Dimensionless Taylor coefficient of S_K in epsilon.

    g_l = (1 - 4^-m) * ((1 + gamma*eta)^l - (1 - eta)^l) / l!; g_0 = 0 and
    g_1 collapses to gamma*eta.  With ``eps = J0*T`` and ``eta = J1/J0``,
    g_l * eps^l is the T^l term of S_K(T).

    The two powers are running products u_1, u_2 of their rates over k, and
    g_l is (1 - 4^-m) * (u_1 - u_2).  Since 1 + gamma*eta >= |1 - eta| and
    rounding is monotone, u_1 >= |u_2| in floating point too, so every value
    is nonnegative, and exactly 0 at eta = 0.  A value beyond double range is
    inf.  Raises ValueError unless l >= 0 and eta is finite and >= 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")
    rates, weights = _nudd_series(1.0, eta, m)
    u1, u2 = power_coeffs(rates, l + 1)[:, l]
    return math.inf if math.isinf(u1) else float(weights[0] * (u1 - u2))


def s_error_sum(T, J0, J1, m):
    """Total error-weight bound S_K(T); zero at T = 0 and when J1 = 0."""
    g = gamma_factor(m)
    return g * math.exp(J0 * T) * (math.exp(g * J1 * T) - math.exp(-J1 * T)) / (g + 1)


def s_identity_sum(T, J0, J1, m):
    """Identity-channel bound S_0(T); S_0 + S_K = exp((J0 + gamma*J1) T)."""
    g = gamma_factor(m)
    return math.exp(J0 * T) * (math.exp(g * J1 * T) + g * math.exp(-J1 * T)) / (g + 1)


def _digits(word):
    """The word's letters as indices into the certifier's letters."""
    for a in word:
        if a not in _LETTERS:
            raise ValueError(f"invalid letter {a!r}; expected one of {_LETTERS}")
    return [_LETTERS.index(a) for a in word]


def _word_index(word):
    """Index of a word in its signature level."""
    return int(np.ravel_multi_index(_digits(word), (4,) * len(word)))


def word_integral(word, grid, backend):
    """Nested integral of one word's switching-function product.

    The first letter is innermost (acts earliest); ``grid`` is the two-level
    nesting grid of the orders.  Returns an exact ``Fraction`` on the
    ``"rational"`` backend (orders <= 2) and a float on ``"mp"`` (0.0 for a
    word proved zero).  The value is read from ``signature``, which computes
    all 4^n words of the word's length, so words longer than the certifier's
    depth cap are rejected.
    """
    word = tuple(word)
    if not 1 <= len(word) <= _MAX_DEPTH:
        raise ValueError(f"word length must be in 1..{_MAX_DEPTH}")
    index = _word_index(word)
    sig = signature(grid, len(word))
    return _read_level(backend, sig, len(word))[2](index)
