import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from stein_shrink import (
    expected_chi_norm,
    expected_chi_norm_asymptotic,
    inv_noncentral_chisq_mean,
)

# Monte Carlo oracle for E[1/chi^2_20(625)]: mean of 1/x over 10^7
# noncentral chi-square draws (numpy default_rng(202608)).
_INVMOM_20_625_MC = 0.0015599326042125014
_INVMOM_20_625_MC_SE = 3.89e-08

_NODES, _WEIGHTS = leggauss(64)
_NODES, _WEIGHTS = (_NODES + 1.0) / 2.0, _WEIGHTS / 2.0  # on [0, 1]


def _reference_inv_moment(p, lam):
    """E[1/chi^2_p(lam)] for one float lam, as the scalar routine computed it
    before it took arrays: the closed form at 0, then either branch, summed by
    a 1-D `w @ f`.  The array routine must reproduce it to the bit."""
    x, w = _NODES, _WEIGHTS
    if lam == 0.0:
        return 1.0 / (p - 2)
    s = (p + lam) / 2
    if s <= 50.0:
        return float(w @ (x ** (p - 3) * np.exp(-lam / 2 * (1.0 - x * x))))
    t = 40.0 * x
    f = np.exp((p - 4) / 2 * np.log1p(-t / s) - lam / (2 * s) * t)
    return float(40.0 * (w @ f) / (2 * s))


class TestExpectedChiNorm:
    def test_table_values(self):
        assert expected_chi_norm(10) == pytest.approx(2.918, abs=1e-3)
        assert expected_chi_norm(26) == pytest.approx(4.950, abs=1e-3)

    def test_p5_follows_formula_not_printed_table(self):
        # sqrt(2) Gamma(2.5)/Gamma(2) = 1.87997...; the printed 1.850 is wrong
        v = expected_chi_norm(5)
        assert v == pytest.approx(1.8799712059732514, rel=1e-12)
        assert abs(v - 1.850) > 1e-3

    def test_large_p_no_overflow(self):
        v = expected_chi_norm(2000)
        assert v == pytest.approx(math.sqrt(1999), rel=1e-3)

    @pytest.mark.parametrize("p", [2, 3, 5, 26, 100, 10**3, 10**5, 10**8, 10**12,
                                   10**16, 2**53 + 1, 10**20, 10**300],
                             ids=lambda p: str(p) if p < 10**17 else f"1e{len(str(p)) - 1}")
    def test_matches_mpmath_at_every_scale(self, p):
        # the oracle's Gamma values carry as many digits as p has, plus 40
        with mpmath.workdps(40 + len(str(p))):
            x = mpmath.mpf(p - 1) / 2
            want = mpmath.sqrt(2) * mpmath.gamma(x + mpmath.mpf(1) / 2) / mpmath.gamma(x)
            err = abs(mpmath.mpf(expected_chi_norm(p)) / want - 1)
        assert err <= 1e-14

    def test_asymptotic_values(self):
        assert expected_chi_norm_asymptotic(5) == pytest.approx(1.875)
        assert expected_chi_norm_asymptotic(26) == pytest.approx(4.95)
        assert expected_chi_norm_asymptotic(2) == pytest.approx(0.75)

    def test_domain(self):
        for fn in (expected_chi_norm, expected_chi_norm_asymptotic):
            with pytest.raises(ValueError):
                fn(1)

    def test_gap_decays_at_cubed_sqrt_rate(self):
        # gap ~ (p-1)^(-3/2): quadrupling p-1 should shrink it about 8-fold
        def gap(p):
            return expected_chi_norm(p) - expected_chi_norm_asymptotic(p)

        for nu in (16, 64):
            ratio = gap(4 * nu + 1) / gap(nu + 1)
            assert 0.10 <= ratio <= 0.15


class TestInverseMoment:
    def test_central_values(self):
        assert inv_noncentral_chisq_mean(3, 0.0) == pytest.approx(1.0)
        assert inv_noncentral_chisq_mean(4, 0.0) == pytest.approx(0.5)

    def test_large_lambda_pinned_by_mc_oracle(self):
        v = inv_noncentral_chisq_mean(20, 625.0)
        assert abs(v - _INVMOM_20_625_MC) <= 4 * _INVMOM_20_625_MC_SE
        # Jensen lower bound 1/(lambda + p); the true value is ~1/641.05,
        # above the 1/643 the quadratic heuristic might suggest
        assert v > 1 / 645

    def test_domain(self):
        with pytest.raises(ValueError, match="diverges"):
            inv_noncentral_chisq_mean(2, 1.0)
        with pytest.raises(ValueError):
            inv_noncentral_chisq_mean(5, -1.0)

    def test_matches_kummer_oracle(self):
        # E[1/chi^2_p(lam)] = 1F1(1; p/2; -lam/2) / (p - 2), at 40 digits; the
        # grid spans every decade of lam and both sides of the switch from the
        # [0, 1] integral to the t-substituted one at lam = 100 - p.
        def oracle(p, lam):
            with mpmath.workdps(40):
                lam = mpmath.mpf(lam)
                return mpmath.hyp1f1(1, mpmath.mpf(p) / 2, -lam / 2) / (p - 2)

        decades = [1e-8, 1e-4, 1e-2] + [10.0**k for k in range(19)]
        cases = [(p, lam) for p in (3, 4, 5, 6, 7, 10, 20, 50, 100, 200, 500,
                                    1000, 10**4, 10**6) for lam in decades]
        cases += [(p, 100 - p + k / 2) for p in (3, 4, 5, 7, 20, 50)
                  for k in range(-20, 21)]
        refs = {(p, lam): oracle(p, lam) for p, lam in cases}
        for p, lam in cases:
            err = abs((inv_noncentral_chisq_mean(p, lam) - refs[p, lam]) / refs[p, lam])
            assert err <= 1e-12, (p, lam, float(err))
        # and one array call per p over all of its cases
        for p in sorted({p for p, _ in cases}):
            lams = [lam for q, lam in cases if q == p]
            for lam, got in zip(lams, inv_noncentral_chisq_mean(p, np.array(lams))):
                err = abs((got - refs[p, lam]) / refs[p, lam])
                assert err <= 1e-12, (p, lam, float(err))

    def test_zero_is_closed_form_and_non_finite_raises(self):
        for p in (3, 4, 5, 20, 10**6):
            assert inv_noncentral_chisq_mean(p, 0.0) == 1.0 / (p - 2)
        for lam in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="noncentrality"):
                inv_noncentral_chisq_mean(5, lam)
        # an array names its first bad entry
        for lam, named in (([1.0, math.inf, -1.0], "inf"), ([1.0, math.nan], "nan"),
                           ([[2.0, -1.0], [math.inf, 0.0]], r"-1\.0")):
            with pytest.raises(ValueError,
                               match=rf"^noncentrality must be finite and >= 0, got {named}$"):
                inv_noncentral_chisq_mean(5, np.array(lam))

    @pytest.mark.parametrize("p", [3, 4, 5, 20, 100, 1000, 10**6])
    def test_array_is_bit_equal_to_the_scalar_reference(self, p):
        # lam = 0, both sides of the switch between the two branches at
        # lam = 100 - p, every decade up to 1e18, and 300 log-uniform values
        rng = np.random.default_rng(2101)
        lams = [0.0] + [lam for k in range(-20, 21) if (lam := 100 - p + k / 2) >= 0]
        lams += [10.0**k for k in range(-8, 19)] + (10 ** rng.uniform(-8, 18, 300)).tolist()
        got = inv_noncentral_chisq_mean(p, np.array(lams))
        want = np.array([_reference_inv_moment(p, lam) for lam in lams])
        assert got.shape == (len(lams),) and got.tobytes() == want.tobytes()
        for lam in (0.0, 1.0, 1e6):
            assert type(inv_noncentral_chisq_mean(p, lam)) is float
        assert inv_noncentral_chisq_mean(p, np.array([[0.0, 2.0]])).shape == (1, 2)

    def test_no_warning_where_s_lands_on_a_spike_node(self):
        # lam = 80 x_k - p puts s = (p + lam)/2 exactly on the node t = 40 x_k of
        # the spike form, where log1p(-t/s) is log(0); that form must not run there
        p = 5
        lams = [80.0 * _NODES[k] - p for k in (40, 60, 63)]
        assert [(p + lam) / 2 for lam in lams] == [40.0 * _NODES[k] for k in (40, 60, 63)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inv_noncentral_chisq_mean(p, np.array(lams))
            each = [inv_noncentral_chisq_mean(p, lam) for lam in lams]
        want = np.array([_reference_inv_moment(p, lam) for lam in lams])
        assert got.tobytes() == want.tobytes() == np.array(each).tobytes()

    def test_jensen_strict_lower_bound(self):
        for p in (3, 5, 10, 20):
            for lam in (0.0, 1.0, 25.0, 625.0):
                assert inv_noncentral_chisq_mean(p, lam) > 1 / (lam + p)

    def test_monotone_in_lambda_and_p(self):
        lams = [0.0, 0.5, 2.0, 10.0, 100.0, 1000.0]
        for p in (3, 7, 15):
            vals = [inv_noncentral_chisq_mean(p, lam) for lam in lams]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for lam in (0.0, 3.0, 50.0):
            vals = [inv_noncentral_chisq_mean(p, lam) for p in (3, 4, 6, 12, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_series_matches_simulation(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        for p in (3, 5, 10, 20):
            for lam in (0.0, 1.0, 25.0, 625.0):
                draws = (
                    rng.chisquare(p, n)
                    if lam == 0.0
                    else rng.noncentral_chisquare(p, lam, n)
                )
                inv = 1.0 / draws
                se = inv.std(ddof=1) / math.sqrt(n)
                assert abs(inv.mean() - inv_noncentral_chisq_mean(p, lam)) <= 4 * se
