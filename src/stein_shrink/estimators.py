"""The spherically symmetric estimator family.

Every estimator here is tau(|x|^2) * x with the one formula

    tau = 1 - c/(a + |x|^2),   a >= 0.

The identity is c = 0, the shrinkage family is a = 0, and the naive
geometrically optimal estimator is a = 0, c = p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EstimatorSpec", "shrink_factor", "shrink_gaps"]


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


def shrink_gaps(specs, norm_sq, *, out=None):
    """Yield g = 1 - tau = c/(a + norm_sq) for each spec, into `out` (norm_sq itself
    only for one spec) or a new array; norm_sq is checked once for all specs.

    Raises when a = 0, c != 0 and norm_sq is 0: the factor is undefined at the
    origin, an event of probability zero under the model.  NaN entries pass.
    """
    norm_sq = np.asarray(norm_sq, dtype=float)
    # one pass for both checks; fmin skips NaN, as the comparisons x < 0 and x == 0 do
    low = np.fmin.reduce(norm_sq, axis=None, initial=np.inf)
    if low < 0:
        raise ValueError("norm_sq must be >= 0")
    for spec in specs:
        g = np.empty_like(norm_sq) if out is None else out
        if spec.c == 0.0:
            g.fill(0.0)
        else:
            if spec.a == 0.0 and low == 0.0:
                raise ValueError("shrinkage undefined at origin")
            denom = norm_sq if spec.a == 0.0 else np.add(spec.a, norm_sq, out=g)
            np.divide(spec.c, denom, out=g)
        yield g


def shrink_factor(spec: EstimatorSpec, norm_sq, p: int | None = None, *, out=None):
    """The multiplier tau = 1 - g applied to the observation, into `out` (possibly
    norm_sq itself); see shrink_gaps.  `p` is accepted for callers and not used."""
    [g] = shrink_gaps([spec], norm_sq, out=out)
    np.subtract(1.0, g, out=g)
    return g[()] if g.ndim == 0 else g
