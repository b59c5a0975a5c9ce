"""Stein shrinkage estimators: exact risk formulas, the two-coordinate
reduction, projection geometry, the two-point conditional heuristic, and
seeded Monte Carlo verification of all of it.
"""

from .conditional import (
    ConditionalBreakdown,
    XiPair,
    conditional_delta_closed,
    conditional_losses,
    xi_points,
)
from .core import ProblemConfig
from .estimators import EstimatorSpec, shrink_factor
from .exact_risk import risk_delta_approx, risk_delta_exact, risk_exact
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
