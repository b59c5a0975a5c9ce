"""Stein shrinkage estimators: exact risk formulas, the two-coordinate
reduction, projection geometry, the two-point conditional heuristic, and
seeded Monte Carlo verification of all of it.

Each name in __all__ is imported from its submodule on first access (PEP 562),
so a command line that never uses a submodule never loads it.
"""

import importlib

_SOURCES = {
    "core": ["ProblemConfig"],
    "estimators": ["EstimatorSpec", "shrink_factor"],
    "exact_risk": ["risk_delta_approx", "risk_delta_exact"],
    "monte_carlo": ["CloudSample", "RiskEstimate", "estimate_delta_mc",
                    "estimate_exceedance_prob", "estimate_risk_mc", "simulate_cloud"],
    "plane": ["conditional_delta_closed", "conditional_losses", "ngo_projection"],
    "special": ["expected_chi_norm", "expected_chi_norm_asymptotic", "inv_noncentral_chisq_mean"],
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
