"""Closed-form bounding functions that the tests check the library against.

The library sums each bound as a Taylor tail and never evaluates these
entire functions themselves, so they live with the tests that use them.
"""

import math

from ddbound.nudd_bounds import gamma_factor
from ddbound.qdd_bounds import case_parities


def scaled_bounding_function(j, epsilon, eta):
    """S_j * exp(-eps*(1 + eta_x + eta_y + eta_z)), stable for any magnitude.

    Each factor is (1 +/- exp(-2*eta_alpha*eps))/2 in [0, 1], so the value is
    representable even where S_j itself overflows; the eight sector values sum
    to exactly 1.
    """
    out = 1.0
    for p, e in zip(case_parities(j), eta.as_tuple()):
        damped = math.exp(-2.0 * e * epsilon)
        out *= (1.0 - damped if p else 1.0 + damped) / 2.0
    return out


def s_error_sum(T, J0, J1, m):
    """Total error-weight bound S_K(T); zero at T = 0 and when J1 = 0."""
    g = gamma_factor(m)
    return g * math.exp(J0 * T) * (math.exp(g * J1 * T) - math.exp(-J1 * T)) / (g + 1)


def s_identity_sum(T, J0, J1, m):
    """Identity-channel bound S_0(T); S_0 + S_K = exp((J0 + gamma*J1) T)."""
    g = gamma_factor(m)
    return math.exp(J0 * T) * (math.exp(g * J1 * T) + g * math.exp(-J1 * T)) / (g + 1)
