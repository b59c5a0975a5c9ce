"""Closed-form and approximate risk differences between the identity estimator
and the shrinkage family.

The exact risk improvement of shrinking by c/|X|^2 is

    Delta = 2 * E[1/|X|^2] * (c(p-2) - c^2/2),

positive for every theta if and only if 0 < c < 2(p-2).  The cheap
approximation replaces E[1/|X|^2] by 1/(|theta|^2 + p).  Where |theta|^2
overflows, E[1/|X|^2] is 1/(|theta|^2 + p - 4) to double precision.
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


def risk_delta_exact(p: int, theta_norm: float, c):
    """Exact risk improvement of the c-shrinkage estimator over the identity.

    `c` may be an array: the c-free inverse moment is then computed once.
    """
    if p <= 2:
        raise ValueError(f"exact risk difference requires p >= 3, got p={p}")
    if theta_norm < 0:
        raise ValueError(f"theta_norm must be >= 0, got {theta_norm}")
    lam = theta_norm * theta_norm
    if lam == np.inf and theta_norm < np.inf:  # m1 = 1/(lam + p - 4) to within 2/lam^2
        return _two_over(theta_norm, p - 4, dominance_quadratic(p, c))
    return 2.0 * inv_noncentral_chisq_mean(p, lam) * dominance_quadratic(p, c)


def risk_delta_approx(p: int, theta_norm: float, c):
    """Approximate risk improvement 2/(|theta|^2 + p) * (c(p-2) - c^2/2)."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got p={p}")
    if theta_norm < 0:
        raise ValueError(f"theta_norm must be >= 0, got {theta_norm}")
    return _two_over(theta_norm, p, dominance_quadratic(p, c))


def _two_over(theta_norm, k, q):
    """2q/(theta^2 + k); where theta^2 overflows, q (2w) w/(1 + k w^2) with w = 1/theta,
    in which q (2w) stays normal, so a subnormal result is rounded once."""
    lam = theta_norm * theta_norm
    if lam < np.inf or theta_norm == np.inf:
        return 2.0 / (lam + k) * q
    w = 1.0 / theta_norm
    return q * (2.0 * w) * w / (1.0 + k * w * w)
