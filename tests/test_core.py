import math

import numpy as np
import pytest

from stein_shrink import EstimatorSpec, ProblemConfig, shrink_factor
from stein_shrink.monte_carlo import _paired


def _full_loss(spec, x, theta):
    """|tau(|x|^2) x - theta|^2 in full coordinates."""
    d = shrink_factor(spec, float(x @ x), len(x)) * x - theta
    return float(d @ d)


class TestReductionProperties:
    def test_distance_and_norm_preservation(self):
        # The Monte Carlo loss form, fed the reduced coordinates of x, gives the
        # full-coordinate difference |x - theta|^2 - |tau x - theta|^2.
        rng = np.random.default_rng(20250)
        for _ in range(1000):
            p = int(rng.integers(2, 13))
            theta = rng.normal(size=p) * rng.uniform(0.1, 10)
            while np.linalg.norm(theta) < 1e-6:
                theta = rng.normal(size=p)
            x = rng.normal(size=p) * rng.uniform(0.1, 10)
            spec = EstimatorSpec.shrink_a(rng.uniform(-3, 10), rng.uniform(0, 5))
            t = float(np.linalg.norm(theta))
            x1 = float(x @ theta) / t
            resid = x - x1 * theta / t
            r2 = float(resid @ resid)
            assert x1 * x1 + r2 == pytest.approx(float(x @ x), rel=1e-10)
            [d] = _paired([t], [spec], np.array([x1 - t]), np.array([r2]), *np.empty((4, 1)), [0])
            want = float((x - theta) @ (x - theta)) - _full_loss(spec, x, theta)
            assert d[0] == pytest.approx(want, rel=1e-10)

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
            assert float((rot @ x) @ theta) == pytest.approx(float(x @ theta), abs=1e-10)
            assert float((rot @ x) @ (rot @ x)) == pytest.approx(float(x @ x), rel=1e-10)
            for spec in (EstimatorSpec.shrink(rng.uniform(0, 10)),
                         EstimatorSpec.shrink_a(rng.uniform(0, 10), rng.uniform(0, 5))):
                assert _full_loss(spec, rot @ x, theta) == pytest.approx(
                    _full_loss(spec, x, theta), rel=1e-10, abs=1e-10)


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

