"""Plane geometry behind the naive geometrically optimal estimator.

In the reduced plane: origin O, target A = (theta_norm, 0), typical
observation B = (theta_norm, sqrt(p-1)).  C is the foot of the perpendicular
from A onto the ray O-B; similar triangles give |BC| = |AB|^2 / |OB|, and C
equals (1 - (p-1)/|B|^2) B, the shrinkage factor that defines the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, sqrt

import numpy as np

__all__ = ["GeometryReport", "ngo_projection"]


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
