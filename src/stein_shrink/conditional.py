"""Two-point conditional risk model at xi_pm = (theta_norm +- 1, sqrt(p-1)).

The pair xi_plus, xi_minus models the stochastic variation of the reduced
observation along the theta direction.  Conditional on landing at one of the
two (equally likely) points, the loss of the c-shrinkage estimator decomposes
coordinate-wise, and the improvement over the identity has an exact closed
form whose sign for all theta_norm >= 0 is governed by 0 < c < 2(p-2).

p may be any real >= 2 here; the algebra is polynomial in p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

__all__ = [
    "XiPair",
    "ConditionalBreakdown",
    "xi_points",
    "conditional_losses",
    "conditional_delta_closed",
]


@dataclass(frozen=True)
class XiPair:
    xi_plus: tuple
    xi_minus: tuple
    norm_sq_plus: float
    norm_sq_minus: float


@dataclass(frozen=True)
class ConditionalBreakdown:
    l_plus_1: float
    l_plus_2: float
    l_minus_1: float
    l_minus_2: float
    r_cond_1: float
    r_cond_2: float
    delta: float


def _check_p(p):
    if p < 2:
        raise ValueError(f"two-point model requires p >= 2, got p={p}")


def xi_points(p, theta_norm: float) -> XiPair:
    """The surrogate pair (theta_norm +- 1, sqrt(p-1)) and its squared norms."""
    _check_p(p)
    s = sqrt(p - 1)
    up, um = theta_norm + 1.0, theta_norm - 1.0
    return XiPair(
        xi_plus=(up, s),
        xi_minus=(um, s),
        norm_sq_plus=up * up + (p - 1),
        norm_sq_minus=um * um + (p - 1),
    )


def conditional_losses(p, theta_norm: float, c: float) -> ConditionalBreakdown:
    """Coordinate-wise loss components at xi_pm and the conditional improvement.

    The identity estimator's conditional risk at either point is p itself
    (coordinate-wise 1 and p - 1), so delta = p - (r_cond_1 + r_cond_2).
    """
    pair = xi_points(p, theta_norm)
    out = {}
    for sign, nsq in (("plus", pair.norm_sq_plus), ("minus", pair.norm_sq_minus)):
        u = theta_norm + 1.0 if sign == "plus" else theta_norm - 1.0
        pm = 1.0 if sign == "plus" else -1.0
        l1 = (pm - (c / nsq) * u) ** 2
        l2 = (1.0 - c / nsq) ** 2 * (p - 1)
        out[sign] = (l1, l2)
    r1 = (out["plus"][0] + out["minus"][0]) / 2.0
    r2 = (out["plus"][1] + out["minus"][1]) / 2.0
    return ConditionalBreakdown(
        l_plus_1=out["plus"][0],
        l_plus_2=out["plus"][1],
        l_minus_1=out["minus"][0],
        l_minus_2=out["minus"][1],
        r_cond_1=r1,
        r_cond_2=r2,
        delta=p - (r1 + r2),
    )


def conditional_delta_closed(p, theta_norm: float, c: float) -> float:
    """Closed form of the conditional improvement:

    [2 / (|xi+|^2 |xi-|^2)] * [(c(p-2) - c^2/2) theta_norm^2 + (cp - c^2/2) p].
    """
    pair = xi_points(p, theta_norm)
    t2 = theta_norm * theta_norm
    return (
        2.0
        / (pair.norm_sq_plus * pair.norm_sq_minus)
        * ((c * (p - 2) - c * c / 2.0) * t2 + (c * p - c * c / 2.0) * p)
    )

