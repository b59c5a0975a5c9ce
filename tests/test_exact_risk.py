import math

import mpmath
import numpy as np
import pytest

from stein_shrink import ProblemConfig, estimate_delta_mc, risk_delta_approx, risk_delta_exact


class TestRiskDeltaExact:
    def test_james_stein_risk_at_origin(self):
        # R(0, delta_1) = 2 at p = 3: the factor-2 reading of the identity
        assert risk_delta_exact(3, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        # the risk p - Delta is 2 at theta = 0 for c = 1, p = 3 and c = 3, p = 5
        assert 3 - risk_delta_exact(3, 0.0, 1.0) == pytest.approx(2.0)
        assert 5 - risk_delta_exact(5, 0.0, 3.0) == pytest.approx(2.0)

    def test_zero_at_c_zero(self):
        for p in (3, 5, 9):
            assert risk_delta_exact(p, 2.0, 0.0) == 0.0

    def test_zero_at_window_edge(self):
        for p, t in ((3, 0.0), (5, 2.0), (10, 30.0)):
            assert abs(risk_delta_exact(p, t, 2.0 * (p - 2))) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            risk_delta_exact(2, 1.0, 1.0)

    def test_dominance_window_sign(self):
        for p in range(3, 11):
            hi = 2.0 * (p - 2)
            for t in (0.0, 1.0, 5.0, 25.0):
                for c in (hi / 10, hi / 2, 0.9 * hi):
                    assert risk_delta_exact(p, t, c) > 0
                assert risk_delta_exact(p, t, -0.5) < 0
                assert risk_delta_exact(p, t, hi + 0.5) < 0

    def test_optimal_constant_is_p_minus_2(self):
        for p in (3, 5, 10):
            for t in (0.0, 5.0):
                cs = np.linspace(0, 2 * (p - 2), 401)
                vals = [risk_delta_exact(p, t, c) for c in cs]
                assert cs[int(np.argmax(vals))] == pytest.approx(p - 2, abs=0.01)


class TestPastThetaSquaredOverflow:
    # theta^2 overflows from theta ~ 1.34e154, but Delta stays finite (subnormal
    # from theta ~ 1.5e154) up to theta ~ 1e162
    @pytest.mark.parametrize("theta", [1.5e154, 1e160])
    @pytest.mark.parametrize("p", [3, 5, 20])
    def test_matches_mpmath(self, p, theta):
        cs = [0.5, 1.0, p - 2.0, 1.5 * (p - 2)]
        got = risk_delta_exact(p, theta, np.array(cs))
        with mpmath.workdps(40):
            lam = mpmath.mpf(theta) ** 2
            m1 = mpmath.hyp1f1(1, mpmath.mpf(p) / 2, -lam / 2) / (p - 2)
            for c, g in zip(cs, got):
                want = float(2 * m1 * (c * (p - 2) - mpmath.mpf(c) ** 2 / 2))
                assert abs(g - want) <= 4 * math.ulp(want)

    def test_approx_past_overflow(self):
        want = float(mpmath.mpf(2) / (mpmath.mpf(1e160) ** 2 + 5) * 2.5)
        assert abs(risk_delta_approx(5, 1e160, 1.0) - want) <= 4 * math.ulp(want)

    def test_underflow_is_zero(self):
        assert risk_delta_exact(5, 1e300, 1.0) == 0.0
        assert risk_delta_approx(5, 1e300, 1.0) == 0.0


class TestRiskDeltaApprox:
    def test_poor_at_small_theta(self):
        # approx 1/3 vs exact 1 at (p=3, theta=0, c=1)
        assert risk_delta_approx(3, 0.0, 1.0) == pytest.approx(1 / 3)

    def test_zero_at_c_zero(self):
        assert risk_delta_approx(7, 3.0, 0.0) == 0.0

    def test_plug_in_value(self):
        assert risk_delta_approx(20, 25.0, 18.0) == pytest.approx(324 / 645)

    def test_exact_dominates_approx_in_window(self):
        for p in (3, 5, 10, 20):
            for t in (0.0, 1.0, 5.0, 25.0):
                for c in (0.5, p - 2.0, 1.5 * (p - 2)):
                    assert risk_delta_exact(p, t, c) >= risk_delta_approx(p, t, c)

    def test_relative_gap_vanishes_at_large_theta(self):
        exact = risk_delta_exact(5, 100.0, 3.0)
        approx = risk_delta_approx(5, 100.0, 3.0)
        assert abs(exact - approx) / exact < 0.01


class TestOracleEquivalence:
    def test_exact_matches_paired_mc(self):
        # smoke-scale version of the acceptance grid check
        n = 200_000
        for p, t, c in ((5, 1.0, 3.0), (10, 5.0, 8.0), (20, 25.0, 18.0)):
            est = estimate_delta_mc(ProblemConfig(p, t, seed=123), c, n)
            assert abs(est.mean - risk_delta_exact(p, t, c)) <= 4.5 * est.stderr
