"""The spherically symmetric estimator family.

Every estimator here is tau(|x|^2) * x with the one formula

    tau = 1 - c/(a + |x|^2),   a >= 0.

The identity is c = 0, the shrinkage family is a = 0, and the naive
geometrically optimal estimator is a = 0, c = p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EstimatorSpec", "shrink_factor"]


@dataclass(frozen=True)
class EstimatorSpec:
    """The pair (c, a) of tau = 1 - c/(a + |x|^2).  c may be any sign; a must be >= 0."""

    c: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"regularizer a must be >= 0, got {self.a}")

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def shrink(cls, c: float):
        return cls(c=c)

    @classmethod
    def shrink_a(cls, c: float, a: float):
        return cls(c=c, a=a)


def shrink_factor(spec: EstimatorSpec, norm_sq, p: int):
    """Scalar multiplier tau applied to the observation; vectorized over norm_sq.

    `p` is accepted for callers that pass it and is not used.  Raises when
    a = 0, c != 0 and norm_sq is 0: the factor is undefined at the origin, an
    event of probability zero under the model.
    """
    norm_sq = np.asarray(norm_sq, dtype=float)
    if np.any(norm_sq < 0):
        raise ValueError("norm_sq must be >= 0")
    if spec.c == 0.0:
        return np.ones_like(norm_sq)[()] if norm_sq.ndim == 0 else np.ones_like(norm_sq)
    if spec.a == 0.0:
        if np.any(norm_sq == 0.0):
            raise ValueError("shrinkage undefined at origin")
        out = 1.0 - spec.c / norm_sq
    else:
        out = 1.0 - spec.c / (spec.a + norm_sq)
    return out[()] if out.ndim == 0 else out
