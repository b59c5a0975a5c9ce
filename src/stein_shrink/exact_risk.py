"""Closed-form and approximate risk differences between the identity estimator
and the shrinkage family.

The exact risk improvement of shrinking by c/|X|^2 is

    Delta = 2 * E[1/|X|^2] * (c(p-2) - c^2/2),

positive for every theta if and only if 0 < c < 2(p-2).  The cheap
approximation replaces E[1/|X|^2] by 1/(|theta|^2 + p).
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
    inv_mom = inv_noncentral_chisq_mean(p, theta_norm * theta_norm)
    return 2.0 * inv_mom * dominance_quadratic(p, c)


def risk_delta_approx(p: int, theta_norm: float, c):
    """Approximate risk improvement 2/(|theta|^2 + p) * (c(p-2) - c^2/2)."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got p={p}")
    if theta_norm < 0:
        raise ValueError(f"theta_norm must be >= 0, got {theta_norm}")
    return 2.0 / (theta_norm * theta_norm + p) * dominance_quadratic(p, c)
