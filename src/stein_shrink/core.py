"""Problem configuration.

The model is X ~ N(theta, I_p) with sigma^2 = 1 hard-coded.  Because only
spherically symmetric estimators are of interest, an observation x can be
reduced to two coordinates: its component along theta and the length of the
orthogonal residual.  The Monte Carlo layer samples in those coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ProblemConfig"]


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
