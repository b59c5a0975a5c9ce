import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stein_shrink

_SRC = Path(__file__).resolve().parents[1] / "src"
_EXPORTS = [
    "CloudSample", "EstimatorSpec", "ProblemConfig", "RiskEstimate",
    "conditional_delta_closed", "conditional_losses", "estimate_delta_mc",
    "estimate_exceedance_prob", "estimate_risk_mc", "expected_chi_norm",
    "expected_chi_norm_asymptotic", "inv_noncentral_chisq_mean", "ngo_projection",
    "risk_delta_approx", "risk_delta_exact", "shrink_factor", "simulate_cloud",
]


def test_every_export_is_its_modules_object():
    assert sorted(stein_shrink.__all__) == _EXPORTS
    for name in _EXPORTS:
        obj = getattr(stein_shrink, name)
        assert obj.__module__.startswith("stein_shrink.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_dir_lists_every_export():
    assert set(_EXPORTS) <= set(dir(stein_shrink))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        stein_shrink.no_such_name


def test_import_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, stein_shrink\n"
            "before = [m for m in sys.modules if m.startswith('stein_shrink.')]\n"
            "from stein_shrink import acceptance, ngo_projection\n"
            "print(before, acceptance.__name__, ngo_projection.__module__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(_SRC)))
    assert proc.stdout.split() == ["[]", "stein_shrink.acceptance", "stein_shrink.plane"]
