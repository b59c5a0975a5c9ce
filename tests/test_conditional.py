import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stein_shrink import conditional_delta_closed, conditional_losses


def _norms_sq(p, t):
    """|xi_plus|^2 and |xi_minus|^2 of the pair (t +- 1, sqrt(p - 1))."""
    return (t + 1) ** 2 + p - 1, (t - 1) ** 2 + p - 1


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
        both = (b.l_plus_1 + b.l_minus_1) + (b.l_plus_2 + b.l_minus_2)
        assert b.delta == pytest.approx(6 - both / 2)

    def test_symmetric_at_origin(self):
        b = conditional_losses(8, 0.0, 3.0)
        assert b.l_plus_1 == b.l_minus_1 == pytest.approx((1 - 3 / 8) ** 2)
        assert b.l_plus_2 == b.l_minus_2 == pytest.approx((1 - 3 / 8) ** 2 * 7)
        # |xi_plus|^2 = |xi_minus|^2 = p, so the closed form is 2c - c^2/p
        assert conditional_delta_closed(8, 0.0, 3.0) == pytest.approx(6 - 9 / 8)

    def test_domain(self):
        for route in (conditional_losses, conditional_delta_closed):
            with pytest.raises(ValueError, match="p >= 2"):
                route(1, 1.0, 1.0)
            with pytest.raises(ValueError, match="theta_norm must be >= 0"):
                route(3, -1.0, 1.0)

    def test_arrays_broadcast_and_floats_stay_floats(self):
        p, t, c = np.array([3.0, 6.0, 20.0]), np.array([2.0, 3.0, 25.0]), 2.5
        b = conditional_losses(p, t, c)
        closed = conditional_delta_closed(p, t, c)
        for k in range(3):
            one = conditional_losses(p[k], t[k], c)
            assert b.delta[k] == pytest.approx(one.delta, rel=1e-14)
            assert closed[k] == conditional_delta_closed(p[k], t[k], c)
        assert type(conditional_losses(3, 2.0, 1.0).delta) is float
        assert type(conditional_delta_closed(3, 2.0, 1.0)) is float
        for route in (conditional_losses, conditional_delta_closed):
            with pytest.raises(ValueError, match="p >= 2"):
                route(np.array([3.0, 1.0]), 1.0, 1.0)
            with pytest.raises(ValueError, match="theta_norm must be >= 0"):
                route(3, np.array([1.0, -1.0]), 1.0)


class TestClosedForm:
    def test_worked_instance(self):
        assert conditional_delta_closed(3, 2.0, 1.0) == pytest.approx(19 / 33, rel=1e-12)

    def test_fig2_regime(self):
        # |xi_plus|^2 = 26^2 + 19 = 695 and |xi_minus|^2 = 24^2 + 19 = 595
        want = 2 / (695 * 595) * ((18 * 18 - 162) * 625 + (18 * 20 - 162) * 20)
        assert conditional_delta_closed(20, 25.0, 18.0) == pytest.approx(want, rel=1e-12)

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
                    nsq_plus, nsq_minus = _norms_sq(p, t)
                    bound = (2 * (t * t + p) / (nsq_plus * nsq_minus)) * (
                        c * (p - 2) - c * c / 2
                    )
                    assert conditional_delta_closed(p, t, c) > bound

    def test_window_sharpness(self):
        for p in (3, 5, 10):
            c = 2.0 * (p - 2) + 0.1
            assert conditional_delta_closed(p, 1e4, c) < 0

    def test_first_term_sign(self):
        for p in (3, 10):
            for t, c in ((0.0, 1.0), (2.0, 0.0), (2.0, 1.0), (50.0, 3.0)):
                nsq_plus, nsq_minus = _norms_sq(p, t)
                cross = c * t * (1 / nsq_plus - 1 / nsq_minus)
                if t == 0.0 or c == 0.0:
                    assert cross == pytest.approx(0.0, abs=1e-15)
                else:
                    assert cross < 0

    def test_reciprocal_identities(self):
        for p in (2.5, 3, 12):
            for t in (0.3, 2.0, 40.0):
                nsq_plus, nsq_minus = _norms_sq(p, t)
                prod = nsq_plus * nsq_minus
                diff = 1 / nsq_plus - 1 / nsq_minus
                summ = 1 / nsq_plus + 1 / nsq_minus
                assert diff == pytest.approx(-4 * t / prod, rel=1e-12)
                assert summ == pytest.approx(2 * (t * t + p) / prod, rel=1e-12)

