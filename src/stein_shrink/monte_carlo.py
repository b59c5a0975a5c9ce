"""Seeded Monte Carlo: cloud simulation, empirical risk, paired risk-difference
estimation with common random numbers, and the exceedance probability.

Sampling happens in the reduced two-coordinate system (one normal plus one
chi-square draw per replication), so cost is independent of the dimension p.
The draws z ~ N(0, 1) and r2 ~ chi^2_{p-1} do not depend on theta (x1 = |theta|
+ z), so configs that share p and seed share each chunk's draws.

The paired difference |x - theta|^2 - |tau x - theta|^2 is g (u - g |x|^2),
with g = 1 - tau and u = 2 x.(x - theta) = 2 (x1 z + r2): no two nearly equal
losses are subtracted.  It is scored in blocks of _BLOCK draws, which fit L2.

Replications are split into fixed-size chunks; each chunk owns an RNG stream
derived deterministically from (seed, operation tag, chunk index).  Block
results are added left to right within a chunk, and chunk results left to
right in chunk order.  Output is therefore bit-identical for a given
(config, n) regardless of how many workers execute the chunks or which Python
runs them.  n is capped at MAX_N.

The reduction may overwrite each array a block yields, and the block may reuse
that buffer once its generator resumes; buffers are allocated per chunk call,
so workers never share one.  A chunk's arithmetic runs under np.errstate (per
thread), so an overflow gives an inf or NaN estimate and no warning.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ProblemConfig
from .estimators import EstimatorSpec, shrink_factor, shrink_gaps

__all__ = [
    "RiskEstimate",
    "CloudSample",
    "simulate_cloud",
    "estimate_risk_mc",
    "estimate_delta_mc",
    "estimate_exceedance_prob",
]

CHUNK_SIZE = 1 << 19
MAX_N = 1 << 32  # replications per call, checked before any chunk is made
_BLOCK = 1 << 14  # draws the paired difference scores at a time: its buffers stay in L2

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


def _map_chunks(config, tag, n, chunk_fn, workers=1, min_n=2):
    """Run chunk_fn(rng, count) over fixed-size chunks; results in chunk order.

    Chunk i draws from SeedSequence([seed, tag, i]), so the result does not
    depend on `workers`.
    """
    if not min_n <= n <= MAX_N:
        raise ValueError(f"need {min_n} <= n <= {MAX_N}, got {n}")
    counts = [min(CHUNK_SIZE, n - start) for start in range(0, n, CHUNK_SIZE)]

    def run(i):
        seq = np.random.SeedSequence([config.seed, tag, i])
        return chunk_fn(np.random.Generator(np.random.PCG64(seq)), counts[i])

    if workers <= 1:
        return [run(i) for i in range(len(counts))]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, range(len(counts))))


def _fold(parts):
    """Add (sum, sum of squares) partials left to right from 0.0, unlike sum() from 3.12."""
    sums = itertools.repeat((0.0, 0.0))
    for part in parts:
        sums = [(s + a, q + b) for (s, q), (a, b) in zip(sums, part)]
    return sums


def _sums(config, tag, n, blocks_fn, workers=1):
    """(sum, sum of squares) over n draws of each array a block of blocks_fn(rng, count) yields."""

    def sum_sq(v):
        total = float(v.sum())
        np.multiply(v, v, out=v)
        return total, float(v.sum())

    def chunk(rng, m):
        # sum_sq squares v in place; the producer may reuse v once it resumes
        with np.errstate(over="ignore", invalid="ignore"):
            return _fold(map(sum_sq, block) for block in blocks_fn(rng, m))

    return _fold(_map_chunks(config, tag, n, chunk, workers))


def _moments_to_estimate(total, total_sq, n):
    # max(var, 0.0) clamps a negative rounding and keeps the NaN of an overflow
    var = max((total_sq - total * total / n) / (n - 1), 0.0)
    return RiskEstimate(mean=total / n, stderr=math.sqrt(var / n), n=n)


def _check_finite_risk(p, specs):
    """At p <= 2, E[1/|X|^2] diverges, so c/|x|^2 shrinkage has infinite risk."""
    if p <= 2 and any(spec.a == 0.0 and spec.c != 0.0 for spec in specs):
        raise ValueError(f"risk of c/|x|^2 shrinkage (a = 0) is infinite at p={p} <= 2")


def _draw(rng, p, m):
    """m reduced draws about the origin: z ~ N(0, 1) along theta, r2 ~ chi^2_{p-1}."""
    z = rng.standard_normal(m)
    return z, (rng.chisquare(p - 1, m) if p >= 2 else np.zeros(m))


def _loss_z(spec, x1, r2, norm_sq, theta_norm, out=None):
    """|tau x - theta|^2 per draw from norm_sq = x1^2 + r2 (overwritten), into `out`."""
    f = shrink_factor(spec, norm_sq, out=norm_sq)
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
        z, r2 = _draw(rng, config.p, m)
        return np.add(config.theta_norm, z, out=z), np.sqrt(r2, out=r2)

    parts = _map_chunks(config, _TAG_CLOUD, n, chunk, min_n=1)
    return CloudSample(
        x1=np.concatenate([x1 for x1, _ in parts]),
        r=np.concatenate([r for _, r in parts]),
    )


def estimate_risk_mc(
    config: ProblemConfig, spec: EstimatorSpec, n: int, workers: int = 1
) -> RiskEstimate:
    """Empirical risk of the estimator: mean squared error over n replications."""
    p, t = config.p, config.theta_norm
    _check_finite_risk(p, [spec])

    def chunk(rng, m):
        z, r2 = _draw(rng, p, m)
        x1 = np.add(t, z, out=z)
        yield [_loss_z(spec, x1, r2, x1 * x1 + r2, t, out=x1)]

    [(total, total_sq)] = _sums(config, _TAG_RISK, n, chunk, workers)
    return _moments_to_estimate(total, total_sq, n)


def estimate_delta_mc(config, specs, n: int, workers: int = 1):
    """Paired risk-difference estimate: loss(identity) - loss(spec) on common draws.

    `specs` may be an EstimatorSpec, a bare shrinkage constant c (a = 0), or
    a list of either.  A single spec gives one RiskEstimate; a list gives one
    per entry, all scored on the same draws against one identity loss, and
    each bit-equal to the estimate for that entry alone.  Pairing on the same
    reduced observation cancels most of the sampling variance of differencing
    two independent risk estimates.  `config` may be a list of ProblemConfigs
    that share p and seed: each chunk is drawn once and scored at every theta,
    and each config's result is bit-equal to its own call.
    """
    single = not isinstance(specs, (list, tuple))
    specs = [
        s if isinstance(s, EstimatorSpec) else EstimatorSpec.shrink(float(s))
        for s in ([specs] if single else specs)
    ]
    configs = [config] if isinstance(config, ProblemConfig) else list(config)
    if len({(cfg.p, cfg.seed) for cfg in configs}) != 1:
        raise ValueError("a config list must be non-empty and share p and seed")
    p, thetas = configs[0].p, [cfg.theta_norm for cfg in configs]
    _check_finite_risk(p, specs)

    def block(z, r2, x1, norm_sq, u, d):
        for t in thetas:
            np.add(t, z, out=x1)
            np.multiply(x1, x1, out=norm_sq)
            norm_sq += r2
            np.multiply(x1, z, out=u)  # u = 2 x.(x - theta) = 2 (x1 z + r2)
            u += r2
            u *= 2.0
            for g in shrink_gaps(specs, norm_sq, out=x1):  # x1 is spent
                np.multiply(g, norm_sq, out=d)
                np.subtract(u, d, out=d)
                d *= g
                yield d

    def chunk(rng, m):
        z, r2 = _draw(rng, p, m)
        bufs = [np.empty(min(m, _BLOCK)) for _ in range(4)]
        for lo in range(0, m, _BLOCK):
            yield block(z[lo:lo + _BLOCK], r2[lo:lo + _BLOCK], *(b[:m - lo] for b in bufs))

    sums = iter(_sums(configs[0], _TAG_DELTA, n, chunk, workers))
    results = [[_moments_to_estimate(*next(sums), n) for _ in specs] for _ in configs]
    results = [r[0] for r in results] if single else results
    return results[0] if isinstance(config, ProblemConfig) else results


def estimate_exceedance_prob(
    config: ProblemConfig, n: int, workers: int = 1
) -> RiskEstimate:
    """Empirical P(|X| >= |theta|), with a binomial standard error."""
    p, t = config.p, config.theta_norm

    def chunk(rng, m):
        # |X|^2 >= t^2 as z (2t + z) + r2 >= 0 with z = x1 - t: for a huge t,
        # t + z rounds to t and t * t overflows, and either loses the event.
        z, r2 = _draw(rng, p, m)
        yield [z * (2.0 * t + z) + r2 >= 0.0]

    [(hits, _)] = _sums(config, _TAG_EXCEED, n, chunk, workers)
    phat = hits / n
    return RiskEstimate(mean=phat, stderr=math.sqrt(phat * (1 - phat) / n), n=n)
