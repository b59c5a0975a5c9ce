import math

import numpy as np
import pytest

from stein_shrink import (
    ProblemConfig,
    ZPoint,
    squared_error,
    squared_error_z,
    z_reduce,
)


class TestZReduce:
    def test_axis_aligned_theta(self):
        z = z_reduce([3, 4, 0], [1, 0, 0])
        assert z.x1 == pytest.approx(3)
        assert z.r == pytest.approx(4)

    def test_x_on_theta_ray(self):
        z = z_reduce([2, 2], [2, 2])
        assert z.x1 == pytest.approx(math.sqrt(8))
        assert z.r == pytest.approx(0, abs=1e-12)

    def test_hand_projection(self):
        # Gram-Schmidt by hand: x1 = 2, residual (1, 0, 2)
        z = z_reduce([1, 2, 2], [0, 3, 0])
        assert z.x1 == pytest.approx(2)
        assert z.r == pytest.approx(math.sqrt(5))

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError, match="direction undefined"):
            z_reduce([1, 2], [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            z_reduce([1, 2, 3], [1, 0])


class TestSquaredError:
    def test_zero_at_theta(self):
        assert squared_error([1.5, -2.0], [1.5, -2.0]) == 0

    def test_unit_offsets(self):
        assert squared_error([1, 1], [0, 0]) == pytest.approx(2)

    def test_sum_of_squares(self):
        assert squared_error([1, 2, 3], [0, 0, 0]) == pytest.approx(14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            squared_error([1, 2], [1, 2, 3])


class TestSquaredErrorZ:
    def test_zero_at_target(self):
        assert squared_error_z([3.0, 0.0], 3.0) == 0

    def test_fig2_center(self):
        assert squared_error_z([25.0, math.sqrt(19)], 25.0) == pytest.approx(19)

    def test_plain_point(self):
        assert squared_error_z([2.0, 2.0], 3.0) == pytest.approx(5)


class TestReductionProperties:
    def test_distance_and_norm_preservation(self):
        rng = np.random.default_rng(20250)
        for _ in range(1000):
            p = int(rng.integers(2, 13))
            theta = rng.normal(size=p) * rng.uniform(0.1, 10)
            while np.linalg.norm(theta) < 1e-6:
                theta = rng.normal(size=p)
            x = rng.normal(size=p) * rng.uniform(0.1, 10)
            tau = rng.uniform(-2, 2)
            z = z_reduce(x, theta)
            lhs = squared_error(tau * x, theta)
            rhs = squared_error_z(tau * z.as_array(), np.linalg.norm(theta))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
            assert z.x1**2 + z.r**2 == pytest.approx(float(x @ x), rel=1e-10)

    def test_rotation_fixing_theta_leaves_z_unchanged(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(3, 10))
            theta = rng.normal(size=p)
            while np.linalg.norm(theta) < 1e-6:
                theta = rng.normal(size=p)
            x = rng.normal(size=p)
            # orthonormal basis with theta-hat first, rotate the orthogonal block
            basis, _ = np.linalg.qr(
                np.column_stack([theta, rng.normal(size=(p, p - 1))])
            )
            block, _ = np.linalg.qr(rng.normal(size=(p - 1, p - 1)))
            q = np.eye(p)
            q[1:, 1:] = block
            rot = basis @ q @ basis.T
            assert np.allclose(rot @ theta, theta, atol=1e-8)
            z1 = z_reduce(x, theta)
            z2 = z_reduce(rot @ x, theta)
            assert z1.x1 == pytest.approx(z2.x1, abs=1e-10)
            assert z1.r == pytest.approx(z2.r, abs=1e-10)


class TestTypes:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProblemConfig(0, 1.0)
        with pytest.raises(ValueError):
            ProblemConfig(3, -1.0)
        for theta_norm in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ProblemConfig(3, theta_norm)
        with pytest.raises(ValueError):
            ProblemConfig(3, 1.0, seed=-1)

    def test_zpoint_validation(self):
        with pytest.raises(ValueError):
            ZPoint(1.0, -0.5)
        assert ZPoint(3.0, 4.0).norm_sq == pytest.approx(25)
