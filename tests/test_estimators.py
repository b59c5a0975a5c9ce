import pytest

from stein_shrink import EstimatorSpec, shrink_factor


class TestShrinkFactor:
    def test_identity_is_one(self):
        assert shrink_factor(EstimatorSpec.identity(), 0.0, 3) == 1.0
        assert shrink_factor(EstimatorSpec.identity(), 123.4, 7) == 1.0

    def test_shrink_c_hand_value(self):
        # the p=5, theta=3 instance: 1 - 4/13
        assert shrink_factor(EstimatorSpec.shrink(4.0), 13.0, 5) == pytest.approx(9 / 13)

    def test_shrink_ca_limits_to_shrink_c(self):
        for nsq in (0.5, 3.0, 100.0):
            fa = shrink_factor(EstimatorSpec.shrink_a(2.0, 1e-12), nsq, 4)
            fc = shrink_factor(EstimatorSpec.shrink(2.0), nsq, 4)
            assert fa == pytest.approx(fc, abs=1e-9)

    def test_origin_rejected_where_undefined(self):
        for spec in (
            EstimatorSpec.shrink(1.0),
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


class TestSpecParsing:
    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec.shrink_a(1.0, -1.0)
