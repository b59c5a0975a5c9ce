"""Gamma-ratio chi means and the inverse moment of the noncentral chi-square."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "expected_chi_norm",
    "expected_chi_norm_asymptotic",
    "inv_noncentral_chisq_mean",
]


def expected_chi_norm(p: int) -> float:
    """Exact mean of R where R^2 ~ chi^2_{p-1}: sqrt(2) Gamma(p/2) / Gamma((p-1)/2).

    From p = 40 on, where the lgamma difference cancels, it is sqrt(p-1) e^s,
    s the series (DLMF 5.11.8) of ln Gamma(x+1/2) - ln Gamma(x) - ln(x)/2 with
    x = (p-1)/2, cut after x^-7: under 1e-14 relative error at every p.
    """
    if p < 2:
        raise ValueError(f"expected_chi_norm requires p >= 2, got {p}")
    if p < 40:
        return math.sqrt(2.0) * math.exp(math.lgamma(p / 2) - math.lgamma((p - 1) / 2))
    u = 2 / (p - 1)  # 1/x
    s = u * (-1 / 8 + u * u * (1 / 192 + u * u * (-1 / 640 + u * u * 17 / 14336)))
    return math.sqrt(p - 1) * math.exp(s)


def expected_chi_norm_asymptotic(p: int) -> float:
    """Large-p approximation sqrt(p-1) - 1/(4 sqrt(p-1))."""
    if p < 2:
        raise ValueError(f"expected_chi_norm_asymptotic requires p >= 2, got {p}")
    s = math.sqrt(p - 1)
    return s - 1.0 / (4.0 * s)


@functools.cache
def _legendre_nodes():
    """64-point Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(64)
    return (x + 1.0) / 2.0, w / 2.0


def inv_noncentral_chisq_mean(p: int, lam):
    """E[1 / chi^2_p(lambda)], the mean of the reciprocal noncentral chi-square.

    Kummer's integral (DLMF 13.4.1) for 1F1(1; p/2; -lambda/2) / (p - 2), with
    v = 1 - w^2, gives the integral of w^(p-3) exp(-lambda (1 - w^2) / 2) over
    [0, 1].  Once s = (p + lambda)/2 exceeds 50 the integrand is a spike at
    w = 1, so t = s (1 - w^2) maps it to (1/2s) times the integral over [0, 40]
    of (1 - t/s)^((p-4)/2) exp(-lambda t / 2s); the cut drops less than e^-38
    and stays clear of the p = 3 singularity at t = s.  Both use one 64-node
    Gauss-Legendre rule.  Diverges for p <= 2.

    `lam` is a float (a float back) or an array (one of its shape back).  Only the
    branch taken runs; lambda = 0 is 1/(p - 2) exactly; `np.vecdot` sums a row as a
    1-D dot does, so each entry has the bits of a scalar call.
    """
    if p <= 2:
        raise ValueError(f"inverse moment diverges for p <= 2, got p={p}")
    lam = np.asarray(lam, dtype=float)
    bad = lam[~((lam >= 0.0) & (lam < math.inf))]
    if bad.size:
        raise ValueError(f"noncentrality must be finite and >= 0, got {bad[0]}")
    x, w = _legendre_nodes()
    s, m1 = (p + lam) / 2, np.full(lam.shape, 1.0 / (p - 2))
    kummer, spike = (lam > 0.0) & (s <= 50.0), (lam > 0.0) & (s > 50.0)
    m1[kummer] = np.vecdot(x ** (p - 3) * np.exp(-lam[kummer, None] / 2 * (1.0 - x * x)), w)
    t, ls, ss = 40.0 * x, lam[spike, None], s[spike, None]
    f = np.exp((p - 4) / 2 * np.log1p(-t / ss) - ls / (2 * ss) * t)
    m1[spike] = 40.0 * np.vecdot(f, w) / (2 * s[spike])
    return m1 if lam.ndim else float(m1)
