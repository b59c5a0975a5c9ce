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
    def shrink(cls, c: float):
        return cls(c=c)

    @classmethod
    def shrink_a(cls, c: float, a: float):
        return cls(c=c, a=a)


def shrink_factor(spec: EstimatorSpec, norm_sq, p: int | None = None, *, out=None):
    """Scalar multiplier tau applied to the observation; vectorized over norm_sq.

    `p` is accepted for callers that pass it and is not used.  `out`, an array
    shaped like norm_sq and possibly norm_sq itself, receives tau.  Raises when
    a = 0, c != 0 and norm_sq is 0: the factor is undefined at the origin, an
    event of probability zero under the model.  NaN entries pass both checks.
    """
    norm_sq = np.asarray(norm_sq, dtype=float)
    # one pass for both checks; fmin skips NaN, as the comparisons x < 0 and x == 0 do
    low = np.fmin.reduce(norm_sq, axis=None, initial=np.inf)
    if low < 0:
        raise ValueError("norm_sq must be >= 0")
    out = np.empty_like(norm_sq) if out is None else out
    if spec.c == 0.0:
        out.fill(1.0)
    else:
        if spec.a == 0.0 and low == 0.0:
            raise ValueError("shrinkage undefined at origin")
        denom = norm_sq if spec.a == 0.0 else np.add(spec.a, norm_sq, out=out)
        np.divide(spec.c, denom, out=out)
        np.subtract(1.0, out, out=out)
    return out[()] if out.ndim == 0 else out
