"""Closed-form and approximate risk differences between the identity estimator
and the shrinkage family.

The exact risk improvement of shrinking by c/|X|^2 is

    Delta = 2 * E[1/|X|^2] * (c(p-2) - c^2/2),

positive for every theta if and only if 0 < c < 2(p-2).  The cheap
approximation replaces E[1/|X|^2] by 1/(|theta|^2 + p).
"""

from __future__ import annotations

import numpy as np

from .estimators import EstimatorSpec
from .special import inv_noncentral_chisq_mean

__all__ = [
    "risk_delta_exact",
    "risk_delta_approx",
    "risk_exact",
    "dominance_quadratic",
]


def dominance_quadratic(p, c) -> float:
    """The c-quadratic c(p-2) - c^2/2 shared by the exact and approximate routes.

    A huge c overflows to -inf without a warning; the CLI rejects the result.
    """
    with np.errstate(over="ignore"):
        return c * (p - 2) - c * c / 2.0


def risk_delta_exact(p: int, theta_norm: float, c):
    """Exact risk improvement of the c-shrinkage estimator over the identity.

    `c` may be an array: the c-free inverse moment is then computed once.
    """
    if p <= 2:
        raise ValueError(f"exact risk difference requires p >= 3, got p={p}")
    inv_mom = inv_noncentral_chisq_mean(p, theta_norm * theta_norm)
    return 2.0 * inv_mom * dominance_quadratic(p, c)


def risk_delta_approx(p: int, theta_norm: float, c):
    """Approximate risk improvement 2/(|theta|^2 + p) * (c(p-2) - c^2/2)."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got p={p}")
    return 2.0 / (theta_norm * theta_norm + p) * dominance_quadratic(p, c)


def risk_exact(p: int, theta_norm: float, spec: EstimatorSpec) -> float:
    """Closed-form risk: p for the identity (c = 0), p - Delta for a = 0.

    The regularized estimators (a > 0) have no closed form here; their risk is
    available only by Monte Carlo.
    """
    if spec.c == 0.0:
        return float(p)
    if spec.a == 0.0:
        return p - risk_delta_exact(p, theta_norm, spec.c)
    raise ValueError(f"no closed-form risk for a = {spec.a} > 0; use Monte Carlo")
