"""The paper's reduced plane: the constructions behind Stein's heuristic and its
two-point refinement.

Origin O, target A = (theta_norm, 0), and the typical observation
B = (theta_norm, sqrt(p-1)).  C is the foot of the perpendicular from A onto the
ray O-B: similar triangles give |BC| = |AB|^2 / |OB|, and C = (1 - (p-1)/|B|^2) B,
the shrinkage with c = p - 1 that defines the naive geometrically optimal estimator.

The pair xi_pm = B +- (1, 0), equally likely, models the observation's variation
along theta.  Conditional on landing at one of them, the loss of the c-shrinkage
estimator decomposes coordinate-wise, and its improvement over the identity has a
closed form whose sign for all theta_norm >= 0 is governed by 0 < c < 2(p-2).
There p may be any real >= 2; the algebra is polynomial in p, and broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, sqrt

import numpy as np

__all__ = ["GeometryReport", "ngo_projection",
           "ConditionalBreakdown", "conditional_losses", "conditional_delta_closed"]


@dataclass(frozen=True)
class GeometryReport:
    a: np.ndarray
    b: np.ndarray
    c_point: np.ndarray
    len_ab: float
    len_ob: float
    len_bc: float
    shrink_factor: float


def ngo_projection(p: int, theta_norm: float) -> GeometryReport:
    """Project the target onto the observation ray at the distribution center."""
    if p < 2:
        raise ValueError(f"projection requires p >= 2, got p={p}")
    if theta_norm <= 0:
        raise ValueError("projection degenerate: theta_norm must be > 0")
    a = np.array([theta_norm, 0.0])
    b = np.array([theta_norm, sqrt(p - 1.0)])
    # |B|^2 overflows from theta_norm ~ 1e154; the factor is then 1 to double
    # precision, and |B| itself comes from hypot.
    with np.errstate(over="ignore"):
        factor = 1.0 - (p - 1.0) / float(b @ b)
    len_ob = hypot(theta_norm, sqrt(p - 1.0))
    return GeometryReport(
        a=a,
        b=b,
        c_point=factor * b,
        len_ab=sqrt(p - 1.0),
        len_ob=len_ob,
        len_bc=(p - 1.0) / len_ob,
        shrink_factor=factor,
    )


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

    [2 / (|xi+|^2 |xi-|^2)] * [q1 theta_norm^2 + q2 p], q1 = c(p-2) - c^2/2, q2 = cp - c^2/2.

    Where |xi+|^2 |xi-|^2 overflows, through theta_norm or p (the one test), the value is
    formed in w = 1/s and v = theta_norm/s, s = max(theta_norm, sqrt(p)) (v is exactly 1
    where s = theta_norm), as 2 (q1 v^2 + q2 p w^2) w^2 / (a+ a-), a_pm = (v +- w)^2 +
    (p-1) w^2, multiplying by w last so that a subnormal result is rounded once.
    """
    q1, q2 = c * (p - 2) - c * c / 2.0, c * p - c * c / 2.0
    with np.errstate(all="ignore"):
        norm_sq_plus, norm_sq_minus = _norms_sq(p, theta_norm)
        den = norm_sq_plus * norm_sq_minus
        s = np.maximum(theta_norm, np.sqrt(p))
        w, v = np.divide(1.0, s), np.where(theta_norm < s, theta_norm / s, 1.0)
        a_plus, a_minus = [(v + e * w) ** 2 + (p - 1) * w * w for e in (1.0, -1.0)]
        out = np.where(den < np.inf, 2.0 / den * (q1 * (theta_norm * theta_norm) + q2 * p),
                       (q1 * (v * v) + q2 * (p * w * w)) * (2.0 * w) / (a_plus * a_minus) * w)
    return out if out.ndim else float(out)
