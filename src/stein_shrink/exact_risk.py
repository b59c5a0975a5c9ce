"""Closed-form and approximate risk differences between the identity estimator
and the shrinkage family.

The exact risk improvement of shrinking by c/|X|^2 is

    Delta = 2 * E[1/|X|^2] * (c(p-2) - c^2/2),

positive for every theta if and only if 0 < c < 2(p-2).  The cheap approximation
replaces E[1/|X|^2] by 1/(|theta|^2 + p).  Where |theta|^2 overflows (one test, in
`_two_over`, for both routes), E[1/|X|^2] is 1/(|theta|^2 + p - 4) to double precision.
"""

from __future__ import annotations

import numpy as np

from .special import inv_noncentral_chisq_mean

__all__ = ["risk_delta_exact", "risk_delta_approx", "dominance_quadratic"]


def dominance_quadratic(p, c) -> float:
    """The c-quadratic c(p-2) - c^2/2 shared by the exact and approximate routes.

    A huge c overflows to -inf, or inf - inf = NaN, without a warning; the CLI
    rejects the result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return c * (p - 2) - c * c / 2.0


def risk_delta_exact(p: int, theta_norm, c):
    """Exact risk improvement of the c-shrinkage estimator over the identity.

    `theta_norm` and `c` broadcast, so a theta column against a row of c forms
    the theta-free quadratic once and the c-free inverse moment in one call.
    """
    if p <= 2:
        raise ValueError(f"exact risk difference requires p >= 3, got p={p}")
    return _two_over(_theta(theta_norm), p - 4, dominance_quadratic(p, c),
                     lambda lam: 2.0 * inv_noncentral_chisq_mean(p, lam))[()]


def risk_delta_approx(p: int, theta_norm, c):
    """Approximate risk improvement 2/(|theta|^2 + p) * (c(p-2) - c^2/2), broadcast."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got p={p}")
    return _two_over(_theta(theta_norm), p, dominance_quadratic(p, c),
                     lambda lam: 2.0 / (lam + p))[()]


def _theta(theta_norm):
    """theta_norm as a float array; an entry not >= 0, NaN too, is refused, the first named."""
    theta = np.asarray(theta_norm, dtype=float)
    bad = theta[~(theta >= 0)]
    if bad.size:
        raise ValueError(f"theta_norm must be >= 0, got {bad[0]}")
    return theta


def _two_over(theta, k, q, two_m1):
    """2 m1 q per element, with 2 m1 = two_m1(theta^2): the one test for theta^2 overflow.
    Where it overflows, m1 = 1/(theta^2 + k), as q (2w) w/(1 + k w^2) with w = 1/theta,
    in which q (2w) stays normal, so a subnormal result is rounded once."""
    with np.errstate(all="ignore"):
        lam = theta * theta
        w = 1.0 / theta
        fits = (lam < np.inf) | (theta == np.inf)
        return np.where(fits, two_m1(np.where(fits, lam, 0.0)) * q,
                        q * (2.0 * w) * w / (1.0 + k * w * w))
