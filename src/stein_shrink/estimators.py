"""The spherically symmetric estimator family.

Every estimator here has the form tau(|x|^2) * x: identity (tau = 1), the
shrinkage family 1 - c/|x|^2, its regularized variant 1 - c/(a + |x|^2), and
the naive geometrically optimal estimator 1 - (p-1)/|x|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ZPoint

__all__ = ["Kind", "EstimatorSpec", "shrink_factor", "apply"]


class Kind(Enum):
    IDENTITY = "identity"
    SHRINK_C = "shrink_c"
    SHRINK_CA = "shrink_ca"
    NGO = "ngo"


@dataclass(frozen=True)
class EstimatorSpec:
    """Tagged choice of estimator.  c may be any sign; a must be >= 0."""

    kind: Kind
    c: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if self.kind is Kind.SHRINK_CA and self.a < 0:
            raise ValueError(f"regularizer a must be >= 0, got {self.a}")

    @classmethod
    def identity(cls):
        return cls(Kind.IDENTITY)

    @classmethod
    def shrink(cls, c: float):
        return cls(Kind.SHRINK_C, c=c)

    @classmethod
    def shrink_a(cls, c: float, a: float):
        return cls(Kind.SHRINK_CA, c=c, a=a)

    @classmethod
    def ngo(cls):
        return cls(Kind.NGO)


def shrink_factor(spec: EstimatorSpec, norm_sq, p: int):
    """Scalar multiplier tau applied to the observation; vectorized over norm_sq.

    Raises when the factor is undefined at the origin (ShrinkC/NGO, or
    ShrinkCa with a = 0), an event of probability zero under the model.
    """
    norm_sq = np.asarray(norm_sq, dtype=float)
    if np.any(norm_sq < 0):
        raise ValueError("norm_sq must be >= 0")
    if spec.kind is Kind.IDENTITY:
        return np.ones_like(norm_sq)[()] if norm_sq.ndim == 0 else np.ones_like(norm_sq)
    if spec.kind is Kind.SHRINK_CA:
        if spec.a == 0.0 and np.any(norm_sq == 0.0):
            raise ValueError("shrinkage undefined at origin")
        out = 1.0 - spec.c / (spec.a + norm_sq)
        return out[()] if out.ndim == 0 else out
    # ShrinkC and NGO
    c = float(p - 1) if spec.kind is Kind.NGO else spec.c
    if np.any(norm_sq == 0.0):
        raise ValueError("shrinkage undefined at origin")
    out = 1.0 - c / norm_sq
    return out[()] if out.ndim == 0 else out


def apply(spec: EstimatorSpec, point, p: int):
    """Apply the estimator to a point (FullVector, ZPoint, or 2-vector).

    The result is a plain ndarray of the same length: a factor below zero can
    produce negative coordinates, which a ZPoint cannot represent.
    """
    if isinstance(point, ZPoint):
        arr = point.as_array()
    else:
        arr = np.asarray(point, dtype=float)
    norm_sq = float(arr @ arr)
    return shrink_factor(spec, norm_sq, p) * arr
