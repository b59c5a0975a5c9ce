"""Reference values for the exact route, independent of stein_shrink.

E[1/chi^2_p(lam)] = 1F1(1; p/2; -lam/2) / (p - 2), evaluated with mpmath at
40 significant digits.  No value is used before it has been cross-checked:
against a direct Poisson-mixture sum for lam <= 1e2, and against the DLMF 13.7
large-argument expansion (1/lam) sum_k (2 - p/2)_k (2/lam)^k for lam >= 1e4.
"""

from __future__ import annotations

import mpmath

DIGITS = 40
# Agreement demanded between the oracle and its cross-checks: far below the
# 1e-12 the program is held to, far above 40-digit rounding.
CROSS_TOL = mpmath.mpf("1e-25")
POISSON_MAX_LAM = 1e2
ASYMPTOTIC_MIN_LAM = 1e4


class OracleError(RuntimeError):
    """The reference disagrees with its own cross-check; no row can be judged."""


def _hyp(p, lam):
    return mpmath.hyp1f1(1, mpmath.mpf(p) / 2, -lam / 2) / (p - 2)


def _poisson_sum(p, lam):
    """sum_k Pois(k; lam/2) / (p - 2 + 2k), summed until terms are negligible."""
    half = lam / 2
    w = mpmath.exp(-half)
    total = w / (p - 2)
    k = 0
    eps = mpmath.mpf(10) ** (-DIGITS - 5)
    while True:
        k += 1
        w = w * half / k
        term = w / (p - 2 + 2 * k)
        total += term
        if k > half and term < eps * total:
            return total


def _asymptotic(p, lam):
    """DLMF 13.7 expansion; returns (value, first omitted term)."""
    x = 2 / lam
    a = 2 - mpmath.mpf(p) / 2
    term = mpmath.mpf(1)
    total = mpmath.mpf(0)
    k = 0
    eps = mpmath.mpf(10) ** (-DIGITS - 5)
    while term != 0 and abs(term) > eps * abs(total):
        total += term
        term = term * (a + k) * x
        k += 1
    return total / lam, abs(term) / lam


def inv_moment(p: int, lam):
    """E[1/chi^2_p(lam)] as an mpf, cross-checked where a check applies."""
    with mpmath.workdps(DIGITS):
        lam = mpmath.mpf(lam)
        if lam == 0:
            return mpmath.mpf(1) / (p - 2)
        value = _hyp(p, lam)
        if lam <= POISSON_MAX_LAM:
            check, bound = _poisson_sum(p, lam), 0
        elif lam >= ASYMPTOTIC_MIN_LAM:
            check, bound = _asymptotic(p, lam)
        else:
            return value
        if abs(value - check) > CROSS_TOL * abs(value) + bound:
            raise OracleError(
                f"1F1 oracle {value} disagrees with its cross-check {check} "
                f"at p={p}, lam={lam}"
            )
        return value


def quadratic(p: int, c: float):
    return mpmath.mpf(c) * (p - 2) - mpmath.mpf(c) ** 2 / 2


def delta_exact(p: int, theta: float, c: float) -> tuple[float, float]:
    """(Delta, scale): Delta = 2 E[1/|X|^2] (c(p-2) - c^2/2), and the size of
    its two terms, 2 E (|c(p-2)| + c^2/2), against which errors are relative
    (Delta itself is 0 at c = 2(p-2) and at c = p-1 when p = 3)."""
    with mpmath.workdps(DIGITS):
        e = inv_moment(p, mpmath.mpf(theta) ** 2)
        c_m = mpmath.mpf(c)
        scale = 2 * e * (abs(c_m * (p - 2)) + c_m**2 / 2)
        return float(2 * e * quadratic(p, c)), float(scale)


def delta_approx(p: int, theta: float, c: float) -> tuple[float, float]:
    """(value, scale) of the approximation 2/(|theta|^2 + p) (c(p-2) - c^2/2)."""
    with mpmath.workdps(DIGITS):
        inv = 2 / (mpmath.mpf(theta) ** 2 + p)
        c_m = mpmath.mpf(c)
        scale = inv * (abs(c_m * (p - 2)) + c_m**2 / 2)
        return float(inv * quadratic(p, c)), float(scale)


def chi_norm_mean(p: int) -> float:
    """E[R] for R^2 ~ chi^2_{p-1}: sqrt(2) Gamma(p/2) / Gamma((p-1)/2)."""
    with mpmath.workdps(DIGITS):
        return float(
            mpmath.sqrt(2) * mpmath.gamma(mpmath.mpf(p) / 2)
            / mpmath.gamma(mpmath.mpf(p - 1) / 2)
        )
