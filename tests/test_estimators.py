import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stein_shrink import EstimatorSpec, Kind, ZPoint, apply, shrink_factor


class TestShrinkFactor:
    def test_identity_is_one(self):
        assert shrink_factor(EstimatorSpec.identity(), 0.0, 3) == 1.0
        assert shrink_factor(EstimatorSpec.identity(), 123.4, 7) == 1.0

    def test_shrink_c_hand_value(self):
        # the p=5, theta=3 instance: 1 - 4/13
        assert shrink_factor(EstimatorSpec.shrink(4.0), 13.0, 5) == pytest.approx(9 / 13)

    def test_ngo_matches_shrink_c_pminus1_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = int(rng.integers(2, 30))
            nsq = float(rng.uniform(0.01, 1e4))
            assert shrink_factor(EstimatorSpec.ngo(), nsq, p) == shrink_factor(
                EstimatorSpec.shrink(float(p - 1)), nsq, p
            )

    def test_shrink_ca_limits_to_shrink_c(self):
        for nsq in (0.5, 3.0, 100.0):
            fa = shrink_factor(EstimatorSpec.shrink_a(2.0, 1e-12), nsq, 4)
            fc = shrink_factor(EstimatorSpec.shrink(2.0), nsq, 4)
            assert fa == pytest.approx(fc, abs=1e-9)

    def test_origin_rejected_where_undefined(self):
        for spec in (
            EstimatorSpec.shrink(1.0),
            EstimatorSpec.ngo(),
            EstimatorSpec.shrink_a(1.0, 0.0),
        ):
            with pytest.raises(ValueError, match="undefined at origin"):
                shrink_factor(spec, 0.0, 3)

    def test_origin_legal_for_identity_and_regularized(self):
        assert shrink_factor(EstimatorSpec.identity(), 0.0, 3) == 1.0
        assert shrink_factor(EstimatorSpec.shrink_a(1.0, 2.0), 0.0, 3) == 0.5

    def test_negative_norm_sq_rejected(self):
        with pytest.raises(ValueError):
            shrink_factor(EstimatorSpec.shrink(1.0), -1.0, 3)


class TestApply:
    def test_identity_fixed_point(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(apply(EstimatorSpec.identity(), x, 3), x)

    def test_shrink_on_zpoint(self):
        # |Z|^2 = 11, factor 10/11
        out = apply(EstimatorSpec.shrink(1.0), ZPoint(3.0, math.sqrt(2)), 3)
        assert out[0] == pytest.approx(30 / 11)
        assert out[1] == pytest.approx(10 * math.sqrt(2) / 11)

    def test_ngo_at_center_point(self):
        out = apply(EstimatorSpec.ngo(), ZPoint(3.0, 2.0), 5)
        assert out == pytest.approx([27 / 13, 18 / 13])

    def test_overshrink_past_origin_representable(self):
        out = apply(EstimatorSpec.shrink(10.0), ZPoint(1.0, 1.0), 3)
        assert out[0] < 0 and out[1] < 0

    @given(
        c=st.floats(-3, 10),
        x1=st.floats(-20, 20),
        x2=st.floats(-20, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_collinearity_2d(self, c, x1, x2):
        x = np.array([x1, x2])
        if float(x @ x) < 1e-6:
            return
        out = apply(EstimatorSpec.shrink(c), x, 2)
        # 2-D cross product vanishes for collinear vectors
        cross = out[0] * x[1] - out[1] * x[0]
        assert abs(cross) <= 1e-10 * max(1.0, float(np.abs(out).max() * np.abs(x).max()))

    def test_spherical_equivariance(self):
        rng = np.random.default_rng(11)
        for spec in (
            EstimatorSpec.shrink(2.0),
            EstimatorSpec.shrink_a(2.0, 1.0),
            EstimatorSpec.ngo(),
        ):
            for _ in range(50):
                p = int(rng.integers(2, 8))
                x = rng.normal(size=p) * 3
                q, _ = np.linalg.qr(rng.normal(size=(p, p)))
                lhs = apply(spec, q @ x, p)
                rhs = q @ apply(spec, x, p)
                assert np.allclose(lhs, rhs, atol=1e-10)


class TestSpecParsing:
    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec(Kind.SHRINK_CA, c=1.0, a=-1.0)
