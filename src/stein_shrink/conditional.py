"""Two-point conditional risk model at xi_pm = (theta_norm +- 1, sqrt(p-1)).

The pair xi_plus, xi_minus models the stochastic variation of the reduced
observation along the theta direction.  Conditional on landing at one of the
two (equally likely) points, the loss of the c-shrinkage estimator decomposes
coordinate-wise, and the improvement over the identity has an exact closed
form whose sign for all theta_norm >= 0 is governed by 0 < c < 2(p-2).

p may be any real >= 2 here; the algebra is polynomial in p, and broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConditionalBreakdown", "conditional_losses", "conditional_delta_closed"]


@dataclass(frozen=True)
class ConditionalBreakdown:
    l_plus_1: float
    l_plus_2: float
    l_minus_1: float
    l_minus_2: float
    delta: float


def _norms_sq(p, theta_norm: float):
    """(|xi_plus|^2, |xi_minus|^2) = ((theta_norm +- 1)^2 + p - 1)."""
    if np.any(p < 2):
        raise ValueError(f"two-point model requires p >= 2, got p={p}")
    if np.any(theta_norm < 0):
        raise ValueError(f"theta_norm must be >= 0, got {theta_norm}")
    up, um = theta_norm + 1.0, theta_norm - 1.0
    return up * up + (p - 1), um * um + (p - 1)


def conditional_losses(p, theta_norm: float, c: float) -> ConditionalBreakdown:
    """Coordinate-wise loss components at xi_pm and the conditional improvement.

    The conditional risk is r_cond_1 + r_cond_2, with r_cond_k = (l_plus_k +
    l_minus_k)/2 the mean loss in coordinate k (along theta, then across it).
    The identity's is p (coordinate-wise 1 and p - 1), so delta = p - (r_cond_1
    + r_cond_2).
    """
    (l_plus_1, l_plus_2), (l_minus_1, l_minus_2) = [
        ((e - (c / nsq) * (theta_norm + e)) ** 2, (1.0 - c / nsq) ** 2 * (p - 1))
        for e, nsq in zip((1.0, -1.0), _norms_sq(p, theta_norm))
    ]
    delta = p - ((l_plus_1 + l_minus_1) / 2.0 + (l_plus_2 + l_minus_2) / 2.0)
    return ConditionalBreakdown(l_plus_1, l_plus_2, l_minus_1, l_minus_2, delta)


def conditional_delta_closed(p, theta_norm: float, c: float) -> float:
    """Closed form of the conditional improvement:

    [2 / (|xi+|^2 |xi-|^2)] * [(c(p-2) - c^2/2) theta_norm^2 + (cp - c^2/2) p].
    """
    norm_sq_plus, norm_sq_minus = _norms_sq(p, theta_norm)
    t2 = theta_norm * theta_norm
    return (
        2.0
        / (norm_sq_plus * norm_sq_minus)
        * ((c * (p - 2) - c * c / 2.0) * t2 + (c * p - c * c / 2.0) * p)
    )
