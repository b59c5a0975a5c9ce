import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stein_shrink import (
    conditional_delta_closed,
    conditional_losses,
    xi_points,
)


class TestXiPoints:
    def test_hand_values_p3(self):
        pair = xi_points(3, 2.0)
        assert pair.xi_plus == pytest.approx((3.0, math.sqrt(2)))
        assert pair.xi_minus == pytest.approx((1.0, math.sqrt(2)))
        assert pair.norm_sq_plus == pytest.approx(11.0)
        assert pair.norm_sq_minus == pytest.approx(3.0)

    def test_fig2_regime(self):
        pair = xi_points(20, 25.0)
        assert pair.xi_plus == pytest.approx((26.0, math.sqrt(19)))
        assert pair.norm_sq_plus == pytest.approx(695.0)

    def test_symmetric_at_origin(self):
        pair = xi_points(8, 0.0)
        assert pair.norm_sq_plus == pair.norm_sq_minus == pytest.approx(8.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            xi_points(1, 1.0)


class TestConditionalLosses:
    def test_worked_instance(self):
        b = conditional_losses(3, 2.0, 1.0)
        assert b.l_plus_1 == pytest.approx(64 / 121, rel=1e-12)
        assert b.l_plus_2 == pytest.approx(200 / 121, rel=1e-12)
        assert b.l_minus_1 == pytest.approx(16 / 9, rel=1e-12)
        assert b.l_minus_2 == pytest.approx(8 / 9, rel=1e-12)
        assert b.delta == pytest.approx(19 / 33, rel=1e-12)

    def test_c_zero_recovers_identity(self):
        for p in (2, 3, 10):
            b = conditional_losses(p, 4.0, 0.0)
            assert b.l_plus_1 == b.l_minus_1 == 1.0
            assert b.l_plus_2 == b.l_minus_2 == pytest.approx(p - 1)
            assert b.delta == pytest.approx(0.0, abs=1e-14)

    def test_breakdown_internal_identities(self):
        b = conditional_losses(6, 3.0, 2.5)
        assert b.r_cond_1 == pytest.approx((b.l_plus_1 + b.l_minus_1) / 2)
        assert b.r_cond_2 == pytest.approx((b.l_plus_2 + b.l_minus_2) / 2)
        assert b.delta == pytest.approx(6 - (b.r_cond_1 + b.r_cond_2))


class TestClosedForm:
    def test_worked_instance(self):
        assert conditional_delta_closed(3, 2.0, 1.0) == pytest.approx(19 / 33, rel=1e-12)

    def test_c_zero(self):
        assert conditional_delta_closed(9, 5.0, 0.0) == 0.0

    def test_positive_at_origin_for_c_in_0_2p(self):
        for p in (2, 3, 10):
            for c in (0.1, p - 1.0, 2.0 * p - 0.1):
                assert conditional_delta_closed(p, 0.0, c) > 0

    @given(
        p=st.floats(2.0, 50.0),
        t=st.floats(0.0, 100.0),
        c=st.floats(-5.0, 150.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_routes_agree(self, p, t, c):
        a = conditional_losses(p, t, c).delta
        b = conditional_delta_closed(p, t, c)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), p)

    def test_strict_inequality_chain(self):
        # delta > lower bound using the window quadratic whenever theta, c > 0
        for p in (3, 5, 20):
            for t in (0.5, 2.0, 30.0):
                for c in (0.5, p - 2.0, p - 1.0):
                    pair = xi_points(p, t)
                    bound = (
                        2 * (t * t + p) / (pair.norm_sq_plus * pair.norm_sq_minus)
                    ) * (c * (p - 2) - c * c / 2)
                    assert conditional_delta_closed(p, t, c) > bound

    def test_window_sharpness(self):
        for p in (3, 5, 10):
            c = 2.0 * (p - 2) + 0.1
            assert conditional_delta_closed(p, 1e4, c) < 0

    def test_first_term_sign(self):
        for p in (3, 10):
            for t, c in ((0.0, 1.0), (2.0, 0.0), (2.0, 1.0), (50.0, 3.0)):
                pair = xi_points(p, t)
                cross = c * t * (1 / pair.norm_sq_plus - 1 / pair.norm_sq_minus)
                if t == 0.0 or c == 0.0:
                    assert cross == pytest.approx(0.0, abs=1e-15)
                else:
                    assert cross < 0

    def test_reciprocal_identities(self):
        for p in (2.5, 3, 12):
            for t in (0.3, 2.0, 40.0):
                pair = xi_points(p, t)
                prod = pair.norm_sq_plus * pair.norm_sq_minus
                diff = 1 / pair.norm_sq_plus - 1 / pair.norm_sq_minus
                summ = 1 / pair.norm_sq_plus + 1 / pair.norm_sq_minus
                assert diff == pytest.approx(-4 * t / prod, rel=1e-12)
                assert summ == pytest.approx(2 * (t * t + p) / prod, rel=1e-12)

