"""Stein shrinkage estimators: exact risk formulas, the two-coordinate
reduction, projection geometry, the two-point conditional heuristic, and
seeded Monte Carlo verification of all of it.
"""

from .conditional import (
    ConditionalBreakdown,
    XiPair,
    conditional_delta_closed,
    conditional_losses,
    dominance_window,
    xi_points,
)
from .core import ProblemConfig, ZPoint, squared_error, squared_error_z, z_reduce
from .estimators import EstimatorSpec, Kind, apply, shrink_factor
from .exact_risk import (
    norm_sq_mean,
    risk_delta_approx,
    risk_delta_exact,
    risk_exact,
)
from .geometry import GeometryReport, ngo_projection
from .monte_carlo import (
    CloudSample,
    RiskEstimate,
    estimate_delta_mc,
    estimate_exceedance_prob,
    estimate_risk_mc,
    simulate_cloud,
)
from .special import (
    expected_chi_norm,
    expected_chi_norm_asymptotic,
    inv_noncentral_chisq_mean,
)

__version__ = "0.1.0"
