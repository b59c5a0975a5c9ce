"""Per-layer measurements by direct calls into stein_shrink's public functions.

Each probe times one layer in isolation on a fixed input and reports the
median of several repetitions.  Inputs derive from the run's seed.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

import oracle
from workloads import REL_TOL


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _median_time(fn, *args, reps=3, min_total=0.0, **kwargs):
    """Median seconds per call over at least `reps` calls and `min_total` seconds."""
    times = []
    while len(times) < reps or sum(times) < min_total:
        times.append(_timed(fn, *args, **kwargs))
    return statistics.median(times)


def special_layer(record):
    from stein_shrink.special import inv_noncentral_chisq_mean as inv_moment

    out = {}
    for k in (0, 2, 4, 6, 8):
        seconds = _median_time(inv_moment, 5, 10.0**k, reps=5, min_total=0.1)
        out[f"special.inv_moment_us.lam1e{k}"] = seconds * 1e6
    bad = []
    for lam in [0.0] + [10.0**k for k in range(19)]:
        ref = oracle.inv_moment(5, lam)
        try:
            got = inv_moment(5, lam)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            bad.append({"lambda": lam, "problem": f"{type(exc).__name__}: {exc}"})
            continue
        rel = abs(got - float(ref)) / float(ref)
        if not rel <= REL_TOL:
            bad.append({"lambda": lam, "problem": f"{got!r} vs {float(ref)!r}, rel {rel:.2e}"})
    out["special.inv_moment.bad_decades"] = len(bad)
    record["bad_decades"] = bad
    return out


def estimators_layer(seed):
    from stein_shrink.estimators import EstimatorSpec, shrink_factor

    n = 1 << 19
    norm_sq = np.random.default_rng(seed).chisquare(5, n)
    specs = {"shrink_c": EstimatorSpec.shrink(3.0),
             "shrink_ca": EstimatorSpec.shrink_a(3.0, 10.0)}
    return {
        f"estimators.shrink_factor_ns.{name}":
            _median_time(shrink_factor, spec, norm_sq, 5, reps=15) / n * 1e9
        for name, spec in specs.items()
    }


def monte_carlo_layer(seed):
    from stein_shrink.core import ProblemConfig
    from stein_shrink.estimators import EstimatorSpec
    from stein_shrink.monte_carlo import (
        estimate_delta_mc, estimate_exceedance_prob, estimate_risk_mc, simulate_cloud)

    cfg = ProblemConfig(5, 3.0, seed)
    n = 1 << 21
    out = {
        "monte_carlo.sample_ns_per_rep": _median_time(estimate_exceedance_prob, cfg, n),
        "monte_carlo.risk_ns_per_rep":
            _median_time(estimate_risk_mc, cfg, EstimatorSpec.shrink(3.0), n),
        "monte_carlo.delta_ns_per_rep": _median_time(estimate_delta_mc, cfg, 3.0, n),
    }
    out = {k: v / n * 1e9 for k, v in out.items()}
    n_cloud = 100_000
    out["monte_carlo.cloud_ns_per_point"] = _median_time(
        simulate_cloud, ProblemConfig(20, 25.0, seed), n_cloud) / n_cloud * 1e9
    # Serial against one thread per core, alternating so drift hits both alike.
    workers = os.cpu_count() or 1
    serial, parallel = [], []
    for _ in range(3):
        serial.append(_timed(estimate_delta_mc, cfg, 3.0, 1 << 22, workers=1))
        parallel.append(_timed(estimate_delta_mc, cfg, 3.0, 1 << 22, workers=workers))
    out["monte_carlo.workers_speedup"] = statistics.median(serial) / statistics.median(parallel)
    return out


def acceptance_layer(seed):
    from stein_shrink import acceptance

    criteria = sorted(
        (name, fn) for name, fn in vars(acceptance).items()
        if name[:1] == "c" and name[1:3].isdigit() and callable(fn))
    times = {name[:3]: _timed(fn, seed, False) for name, fn in criteria}
    named = ("c02", "c03", "c11")
    out = {f"acceptance.{c}_s": times[c] for c in named}
    out["acceptance.rest_s"] = math.fsum(t for c, t in times.items() if c not in named)
    return out


def measure(seed, record):
    out = special_layer(record)
    out.update(estimators_layer(seed))
    out.update(monte_carlo_layer(seed))
    out.update(acceptance_layer(seed))
    return out
