import numpy as np
import pytest

from stein_shrink import EstimatorSpec, shrink_factor


class TestShrinkFactor:
    def test_identity_is_one(self):
        assert shrink_factor(EstimatorSpec(), 0.0, 3) == 1.0
        assert shrink_factor(EstimatorSpec(), 123.4, 7) == 1.0

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
        assert shrink_factor(EstimatorSpec(), 0.0, 3) == 1.0
        assert shrink_factor(EstimatorSpec.shrink_a(1.0, 2.0), 0.0, 3) == 0.5
        nsq = np.array([0.0, 2.0])
        assert shrink_factor(EstimatorSpec(), nsq, 3).tolist() == [1.0, 1.0]
        assert shrink_factor(EstimatorSpec.shrink_a(1.0, 2.0), nsq, 3).tolist() == [0.5, 0.75]

    def test_negative_norm_sq_rejected(self):
        with pytest.raises(ValueError):
            shrink_factor(EstimatorSpec.shrink(1.0), -1.0, 3)


class TestShrinkFactorEdges:
    # The domain checks skip NaN, as the comparisons `x < 0` and `x == 0` do.
    def test_empty_array(self):
        for spec in (EstimatorSpec(), EstimatorSpec.shrink(1.0),
                     EstimatorSpec.shrink_a(1.0, 2.0)):
            out = shrink_factor(spec, np.array([]), 3)
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_zero_d_input_gives_a_scalar(self):
        for spec, nsq, expected in (
            (EstimatorSpec(), 2.5, 1.0),
            (EstimatorSpec.shrink(4.0), 13.0, 1.0 - 4.0 / 13.0),
            (EstimatorSpec.shrink_a(3.0, 10.0), 2.5, 1.0 - 3.0 / (10.0 + 2.5)),
        ):
            for arg in (nsq, np.float64(nsq), np.array(nsq)):
                out = shrink_factor(spec, arg, 3)
                assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
                assert out == expected

    def test_origin_behind_nan_rejected(self):
        with pytest.raises(ValueError, match="shrinkage undefined at origin"):
            shrink_factor(EstimatorSpec.shrink(1.0), np.array([np.nan, 0.0]), 3)

    def test_negative_behind_nan_rejected(self):
        with pytest.raises(ValueError, match="norm_sq must be >= 0"):
            shrink_factor(EstimatorSpec.shrink(1.0), np.array([np.nan, -1.0]), 3)

    def test_nan_alone_gives_nan(self):
        # pytest turns warnings into errors, so this also asserts no warning
        out = shrink_factor(EstimatorSpec.shrink(1.0), np.array([np.nan]), 3)
        assert out.shape == (1,) and np.isnan(out[0])

    def test_input_not_modified(self):
        nsq = np.array([1.0, 4.0])
        for spec in (EstimatorSpec.shrink(1.0), EstimatorSpec.shrink_a(1.0, 2.0)):
            shrink_factor(spec, nsq, 3)
            assert nsq.tolist() == [1.0, 4.0]


class TestSpecParsing:
    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec.shrink_a(1.0, -1.0)
