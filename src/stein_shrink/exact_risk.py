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


def risk_delta_exact(p: int, theta_norm, c):
    """Exact risk improvement of the c-shrinkage estimator over the identity.

    `theta_norm` and `c` broadcast, so a theta column against a row of c forms
    the theta-free quadratic once and the c-free inverse moment once per theta.
    """
    if p <= 2:
        raise ValueError(f"exact risk difference requires p >= 3, got p={p}")
    theta = _theta(theta_norm)
    with np.errstate(over="ignore"):  # m1 = 1/(lam + p - 4) to within 2/lam^2 there
        over = (theta * theta == np.inf) & (theta < np.inf)
    m1 = np.reshape([np.nan if o else inv_noncentral_chisq_mean(p, t * t)
                     for t, o in zip(theta.ravel().tolist(), over.ravel())], theta.shape)
    q = dominance_quadratic(p, c)
    return np.where(over, _two_over(theta, p - 4, q), 2.0 * m1 * q)[()]


def risk_delta_approx(p: int, theta_norm, c):
    """Approximate risk improvement 2/(|theta|^2 + p) * (c(p-2) - c^2/2), broadcast."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got p={p}")
    return _two_over(_theta(theta_norm), p, dominance_quadratic(p, c))[()]


def _theta(theta_norm):
    """theta_norm as a float array; a negative entry is refused, the first one named."""
    theta = np.asarray(theta_norm, dtype=float)
    negative = theta[theta < 0]
    if negative.size:
        raise ValueError(f"theta_norm must be >= 0, got {negative[0]}")
    return theta


def _two_over(theta, k, q):
    """2q/(theta^2 + k); where theta^2 overflows, q (2w) w/(1 + k w^2) with w = 1/theta,
    in which q (2w) stays normal, so a subnormal result is rounded once; per element."""
    with np.errstate(all="ignore"):
        lam = theta * theta
        w = 1.0 / theta
        return np.where((lam < np.inf) | (theta == np.inf), 2.0 / (lam + k) * q,
                        q * (2.0 * w) * w / (1.0 + k * w * w))
