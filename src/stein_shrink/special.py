"""Gamma-ratio chi means and the inverse moment of the noncentral chi-square."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SeriesControl",
    "SeriesConvergenceError",
    "expected_chi_norm",
    "expected_chi_norm_asymptotic",
    "inv_noncentral_chisq_mean",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for series evaluation."""

    rel_tol: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        if not 0 < self.rel_tol < 1:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


class SeriesConvergenceError(RuntimeError):
    """max_terms exhausted before the tail bound met rel_tol; carries the partial sum."""

    def __init__(self, message: str, partial_sum: float):
        super().__init__(message)
        self.partial_sum = partial_sum


def expected_chi_norm(p: int) -> float:
    """Exact mean of R where R^2 ~ chi^2_{p-1}: sqrt(2) Gamma(p/2) / Gamma((p-1)/2)."""
    if p < 2:
        raise ValueError(f"expected_chi_norm requires p >= 2, got {p}")
    return math.sqrt(2.0) * math.exp(math.lgamma(p / 2) - math.lgamma((p - 1) / 2))


def expected_chi_norm_asymptotic(p: int) -> float:
    """Large-p approximation sqrt(p-1) - 1/(4 sqrt(p-1))."""
    if p < 2:
        raise ValueError(f"expected_chi_norm_asymptotic requires p >= 2, got {p}")
    s = math.sqrt(p - 1)
    return s - 1.0 / (4.0 * s)


def inv_noncentral_chisq_mean(
    p: int, lam: float, ctl: SeriesControl = SeriesControl()
) -> float:
    """E[1 / chi^2_p(lambda)], the mean of the reciprocal noncentral chi-square.

    Uses the Poisson-mixture identity E[1/(p - 2 + 2K)] with K ~ Poisson(lam/2),
    summed outward from the Poisson mode in log space.  The truncation tail is
    bounded by (remaining Poisson mass) / (p - 2), a valid majorant because
    every term's reciprocal factor is at most 1/(p - 2).  Diverges for p <= 2.
    """
    if p <= 2:
        raise ValueError(f"inverse moment diverges for p <= 2, got p={p}")
    if lam < 0:
        raise ValueError(f"noncentrality must be >= 0, got {lam}")
    half = lam / 2.0
    if half == 0.0:
        return 1.0 / (p - 2)

    mode = int(half)
    log_w_mode = -half + mode * math.log(half) - math.lgamma(mode + 1)
    w_mode = math.exp(log_w_mode)

    total = w_mode / (p - 2 + 2 * mode)
    mass = w_mode
    lo, hi = mode, mode
    w_lo, w_hi = w_mode, w_mode
    for _ in range(ctl.max_terms):
        w_hi = w_hi * half / (hi + 1)
        hi += 1
        total += w_hi / (p - 2 + 2 * hi)
        mass += w_hi
        if lo > 0:
            w_lo = w_lo * lo / half
            lo -= 1
            total += w_lo / (p - 2 + 2 * lo)
            mass += w_lo
        # Remaining mass: either what the running total says is left of the
        # Poisson distribution, or geometric-ratio bounds on both tails
        # (needed once 1 - mass hits float rounding).
        tail_mass = max(0.0, 1.0 - mass)
        q_hi = half / (hi + 1)
        if q_hi < 1.0:
            geo = w_hi * q_hi / (1.0 - q_hi)
            if lo > 0:
                r_lo = lo / half
                geo += w_lo * r_lo / (1.0 - r_lo) if r_lo < 1.0 else math.inf
            tail_mass = min(tail_mass, geo)
        if tail_mass / (p - 2) < ctl.rel_tol * total:
            return total
    raise SeriesConvergenceError(
        f"series for E[1/chi^2_{p}({lam})] did not converge in {ctl.max_terms} terms",
        partial_sum=total,
    )
