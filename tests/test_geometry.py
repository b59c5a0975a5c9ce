import math

import numpy as np
import pytest

from stein_shrink import EstimatorSpec, ngo_projection, shrink_factor


class TestNgoProjection:
    def test_p5_theta3_instance(self):
        rep = ngo_projection(5, 3.0)
        assert rep.len_ob == pytest.approx(math.sqrt(13))
        assert rep.len_bc == pytest.approx(4 / math.sqrt(13))
        assert rep.c_point == pytest.approx([27 / 13, 18 / 13])
        assert rep.shrink_factor == pytest.approx(9 / 13)

    def test_p2_theta1_diagonal(self):
        rep = ngo_projection(2, 1.0)
        assert rep.b == pytest.approx([1.0, 1.0])
        assert rep.len_bc == pytest.approx(1 / math.sqrt(2))
        assert rep.c_point == pytest.approx([0.5, 0.5])

    def test_vertical_segment_length(self):
        for p in (2, 5, 26):
            assert ngo_projection(p, 2.0).len_ab ** 2 == pytest.approx(p - 1)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="degenerate"):
            ngo_projection(5, 0.0)
        with pytest.raises(ValueError):
            ngo_projection(1, 2.0)


class TestProjectionInvariants:
    @pytest.mark.parametrize("p", [2, 3, 5, 12, 40])
    @pytest.mark.parametrize("theta", [0.25, 1.0, 3.0, 50.0])
    def test_similar_triangle_identity(self, p, theta):
        rep = ngo_projection(p, theta)
        assert rep.len_bc * rep.len_ob == pytest.approx(rep.len_ab**2, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5, 12, 40])
    @pytest.mark.parametrize("theta", [0.25, 1.0, 3.0, 50.0])
    def test_perpendicularity_and_pythagoras(self, p, theta):
        rep = ngo_projection(p, theta)
        assert float((rep.a - rep.c_point) @ rep.b) == pytest.approx(0.0, abs=1e-10)
        len_ac = float(np.linalg.norm(rep.a - rep.c_point))
        assert len_ac**2 + rep.len_bc**2 == pytest.approx(rep.len_ab**2, rel=1e-12)

    def test_c_is_closest_point_on_ray(self):
        rep = ngo_projection(7, 2.5)
        best = np.linalg.norm(rep.c_point - rep.a)
        t_best = rep.shrink_factor
        for t in np.linspace(t_best - 2, t_best + 2, 81):
            d = np.linalg.norm(t * rep.b - rep.a)
            if abs(t - t_best) > 1e-9:
                assert d > best

    def test_estimator_apply_matches_projection(self):
        for p, theta in ((3, 1.0), (5, 3.0), (20, 25.0)):
            rep = ngo_projection(p, theta)
            out = shrink_factor(EstimatorSpec.shrink(p - 1.0), float(rep.b @ rep.b), p) * rep.b
            assert np.max(np.abs(out - rep.c_point)) <= 1e-12
