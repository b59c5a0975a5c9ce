"""Seeded Monte Carlo: cloud simulation, empirical risk, paired risk-difference
estimation with common random numbers, and the exceedance probability.

Sampling happens in the reduced two-coordinate system (one normal plus one
chi-square draw per replication), so cost is independent of the dimension p.

Replications are split into fixed-size chunks; each chunk owns an RNG stream
derived deterministically from (seed, operation tag, chunk index), and chunk
results are reduced in chunk order.  Output is therefore bit-identical for a
given (config, n) regardless of how many workers execute the chunks.

The reduction may overwrite each array a chunk yields, and the chunk may reuse
that buffer once its generator resumes; buffers are allocated per chunk call,
so workers never share one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ProblemConfig
from .estimators import EstimatorSpec, shrink_factor

__all__ = [
    "RiskEstimate",
    "CloudSample",
    "simulate_cloud",
    "estimate_risk_mc",
    "estimate_delta_mc",
    "estimate_exceedance_prob",
]

CHUNK_SIZE = 1 << 19

# Operation tags keep the streams of distinct operations disjoint.
_TAG_CLOUD = 1
_TAG_RISK = 2
_TAG_DELTA = 3
_TAG_EXCEED = 4


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class CloudSample:
    """n reduced observations as arrays: x1 along theta, r the residual length."""

    x1: np.ndarray
    r: np.ndarray
    config: ProblemConfig


def _map_chunks(config, tag, n, chunk_fn, workers=1, min_n=2):
    """Run chunk_fn(rng, count) over fixed-size chunks; results in chunk order.

    Chunk i draws from SeedSequence([seed, tag, i]), so the result does not
    depend on `workers`.
    """
    if n < min_n:
        raise ValueError(f"need n >= {min_n}, got {n}")
    counts = [min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)]

    def run(i):
        seq = np.random.SeedSequence([config.seed, tag, i])
        return chunk_fn(np.random.Generator(np.random.PCG64(seq)), counts[i])

    if workers <= 1:
        return [run(i) for i in range(len(counts))]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, range(len(counts))))


def _sums(config, tag, n, values_fn, workers=1):
    """(sum, sum of squares) over n draws of each array values_fn(rng, count) yields."""

    def sum_sq(v):
        total = float(v.sum())
        np.multiply(v, v, out=v)
        return total, float(v.sum())

    def chunk(rng, m):
        # sum_sq squares v in place; the producer may reuse v once it resumes
        return list(map(sum_sq, values_fn(rng, m)))

    parts = _map_chunks(config, tag, n, chunk, workers)
    return [
        (sum(part[k][0] for part in parts), sum(part[k][1] for part in parts))
        for k in range(len(parts[0]))
    ]


def _moments_to_estimate(total, total_sq, n):
    mean = total / n
    var = max(0.0, (total_sq - total * total / n) / (n - 1))
    return RiskEstimate(mean=mean, stderr=math.sqrt(var / n), n=n)


def _check_finite_risk(p, specs):
    """At p <= 2, E[1/|X|^2] diverges, so c/|x|^2 shrinkage has infinite risk."""
    if p <= 2 and any(spec.a == 0.0 and spec.c != 0.0 for spec in specs):
        raise ValueError(f"risk of c/|x|^2 shrinkage (a = 0) is infinite at p={p} <= 2")


def _sample_z(rng, p, theta_norm, m):
    """m reduced observations: x1 ~ N(theta_norm, 1), r2 ~ chi^2_{p-1}."""
    x1 = theta_norm + rng.standard_normal(m)
    r2 = rng.chisquare(p - 1, m) if p >= 2 else np.zeros(m)
    return x1, r2


def _loss_z(spec, x1, r2, norm_sq, theta_norm, out=None):
    """|tau x - theta|^2 per draw from norm_sq = x1^2 + r2, written into `out`."""
    f = shrink_factor(spec, norm_sq)
    d = np.multiply(f, x1, out=out)
    d -= theta_norm
    d *= d
    f *= f
    f *= r2
    d += f
    return d


def simulate_cloud(config: ProblemConfig, n: int) -> CloudSample:
    """n independent reduced observations; bit-identical for a given seed."""

    def chunk(rng, m):
        x1, r2 = _sample_z(rng, config.p, config.theta_norm, m)
        return x1, np.sqrt(r2)

    parts = _map_chunks(config, _TAG_CLOUD, n, chunk, min_n=1)
    return CloudSample(
        x1=np.concatenate([x1 for x1, _ in parts]),
        r=np.concatenate([r for _, r in parts]),
        config=config,
    )


def estimate_risk_mc(
    config: ProblemConfig, spec: EstimatorSpec, n: int, workers: int = 1
) -> RiskEstimate:
    """Empirical risk of the estimator: mean squared error over n replications."""
    p, t = config.p, config.theta_norm
    _check_finite_risk(p, [spec])

    def chunk(rng, m):
        x1, r2 = _sample_z(rng, p, t, m)
        yield _loss_z(spec, x1, r2, x1 * x1 + r2, t)

    [(total, total_sq)] = _sums(config, _TAG_RISK, n, chunk, workers)
    return _moments_to_estimate(total, total_sq, n)


def estimate_delta_mc(config: ProblemConfig, specs, n: int, workers: int = 1):
    """Paired risk-difference estimate: loss(identity) - loss(spec) on common draws.

    `specs` may be an EstimatorSpec, a bare shrinkage constant c (a = 0), or
    a list of either.  A single spec gives one RiskEstimate; a list gives one
    per entry, all scored on the same draws against one identity loss, and
    each bit-equal to the estimate for that entry alone.  Pairing on the same
    reduced observation cancels most of the sampling variance of differencing
    two independent risk estimates.
    """
    single = not isinstance(specs, (list, tuple))
    specs = [
        s if isinstance(s, EstimatorSpec) else EstimatorSpec.shrink(float(s))
        for s in ([specs] if single else specs)
    ]
    p, t = config.p, config.theta_norm
    _check_finite_risk(p, specs)

    def chunk(rng, m):
        x1, r2 = _sample_z(rng, p, t, m)
        norm_sq = x1 * x1 + r2
        base = np.square(x1 - t)  # the identity's loss: tau = 1 exactly
        base += r2
        diff = np.empty(m)  # one buffer, shared by every spec in turn
        for spec in specs:
            _loss_z(spec, x1, r2, norm_sq, t, out=diff)
            yield np.subtract(base, diff, out=diff)

    estimates = [
        _moments_to_estimate(total, total_sq, n)
        for total, total_sq in _sums(config, _TAG_DELTA, n, chunk, workers)
    ]
    return estimates[0] if single else estimates


def estimate_exceedance_prob(
    config: ProblemConfig, n: int, workers: int = 1
) -> RiskEstimate:
    """Empirical P(|X| >= |theta|), with a binomial standard error."""
    p, t = config.p, config.theta_norm

    def chunk(rng, m):
        # |X|^2 >= t^2 as z (2t + z) + r2 >= 0 with z = x1 - t: for a huge t,
        # t + z rounds to t and t * t overflows, and either loses the event.
        z, r2 = _sample_z(rng, p, 0.0, m)
        yield z * (2.0 * t + z) + r2 >= 0.0

    [(hits, _)] = _sums(config, _TAG_EXCEED, n, chunk, workers)
    phat = hits / n
    return RiskEstimate(mean=phat, stderr=math.sqrt(phat * (1 - phat) / n), n=n)
