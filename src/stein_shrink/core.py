"""Problem configuration, the spherical-symmetry reduction, and squared-error loss.

The model is X ~ N(theta, I_p) with sigma^2 = 1 hard-coded.  Because only
spherically symmetric estimators are of interest, an observation x can be
reduced to two coordinates: its component along theta and the length of the
orthogonal residual.  Loss computations are available in both coordinate
systems and agree without approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProblemConfig",
    "ZPoint",
    "z_reduce",
    "squared_error",
    "squared_error_z",
]


@dataclass(frozen=True)
class ProblemConfig:
    """One estimation problem instance: dimension, |theta|, and RNG seed."""

    p: int
    theta_norm: float
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"dimension must be >= 1, got p={self.p}")
        if not math.isfinite(self.theta_norm):
            raise ValueError(f"theta_norm must be finite, got {self.theta_norm}")
        if self.theta_norm < 0:
            raise ValueError(f"theta_norm must be >= 0, got {self.theta_norm}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class ZPoint:
    """Reduced observation: x1 along the theta direction, r the residual length."""

    x1: float
    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"residual length must be >= 0, got r={self.r}")

    @property
    def norm_sq(self) -> float:
        return self.x1 * self.x1 + self.r * self.r

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.r])


def z_reduce(x, theta) -> ZPoint:
    """Reduce a p-vector observation to (x1, r) coordinates relative to theta.

    x1 is the scalar projection of x onto theta's direction, r the length of
    the orthogonal residual.  Requires a nonzero theta of the same length as x.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape != theta.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: x has shape {x.shape}, theta {theta.shape}")
    tnorm = float(np.linalg.norm(theta))
    if tnorm == 0.0:
        raise ValueError("direction undefined: theta is the zero vector")
    unit = theta / tnorm
    x1 = float(x @ unit)
    resid = x - x1 * unit
    return ZPoint(x1, float(np.linalg.norm(resid)))


def squared_error(estimate, theta) -> float:
    """Squared-error loss sum_i (d_i - theta_i)^2 in the full coordinate system."""
    estimate = np.asarray(estimate, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if estimate.shape != theta.shape:
        raise ValueError(
            f"length mismatch: estimate has shape {estimate.shape}, theta {theta.shape}"
        )
    diff = estimate - theta
    return float(diff @ diff)


def squared_error_z(estimate, theta_norm: float) -> float:
    """Squared-error loss against (theta_norm, 0) in the reduced plane.

    `estimate` is a plain 2-vector; a shrinkage factor below zero can push
    either coordinate negative, which is representable here.
    """
    e = np.asarray(estimate, dtype=float)
    if e.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {e.shape}")
    d0 = e[0] - theta_norm
    return float(d0 * d0 + e[1] * e[1])
