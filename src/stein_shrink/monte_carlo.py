"""Seeded Monte Carlo: cloud simulation, empirical risk, paired risk-difference
estimation with common random numbers, and the exceedance probability.

Sampling happens in the reduced two-coordinate system (one normal plus one
chi-square draw per replication), so cost is independent of the dimension p.
The draws z ~ N(0, 1) and r2 ~ chi^2_{p-1} do not depend on theta (x1 = |theta|
+ z), so configs that share p and seed share each chunk's draws.

The paired difference d = |x - theta|^2 - |tau x - theta|^2 is g (u - g |x|^2),
with g = 1 - tau and u = 2 x.(x - theta) = 2 (x1 z + r2): no two nearly equal
losses are subtracted.  The risk is z^2 + r2 - d, so the identity's is free of
theta to the bit.  Both are NaN where |x|^2 overflows (theta above ~1.34e154).

Replications are split into fixed-size chunks; each chunk owns an RNG stream
derived from (seed, operation tag, chunk index), read as the chunk's m normals,
then its m chi-square values.  Every sum runs one loop: a chunk draws its
normals whole and scores them in blocks of _BLOCK by score(z, r2, x1, norm_sq,
u, d, groups) for the configs that draw it.  Each block first draws its
chi-square values into r2; r2 and the four scratch buffers are five block-length
arrays per chunk call, so workers never share one and a chunk holds only its
normals in full.  A cloud draws each chunk into its slice of the two n-length
outputs.  The reduction squares each array score yields in place, so score may
reuse it only once it resumes.  Block sums are added left to right within a
chunk, and chunk sums in chunk order, so output is bit-identical for a given
(config, n) whatever the workers or the Python.  A chunk is drawn once for all
the counts that cover it whole; a last, partial one at its own length, as its
chi-square values follow its m normals.  n is capped at MAX_N.  Arithmetic runs
under np.errstate (per thread): an overflow gives an inf or NaN, no warning.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ProblemConfig
from .estimators import EstimatorSpec, shrink_gaps

__all__ = [
    "RiskEstimate",
    "CloudSample",
    "simulate_cloud",
    "estimate_risk_mc",
    "estimate_delta_mc",
    "estimate_exceedance_prob",
]

CHUNK_SIZE = 1 << 19
MAX_N = 1 << 32  # replications per call, checked before any chunk or output is made
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


def _check_n(n, min_n=2):
    if not min_n <= n <= MAX_N:
        raise ValueError(f"need {min_n} <= n <= {MAX_N}, got {n}")


def _map_chunks(config, tag, counts, chunk_fn, workers=1):
    """chunk_fn(rng, start, m) for each distinct chunk (start, m) of the counts, in
    order; chunk i draws from SeedSequence([seed, tag, i]), whatever the `workers`."""
    jobs = sorted({(lo, min(CHUNK_SIZE, n - lo)) for n in counts for lo in range(0, n, CHUNK_SIZE)})

    def run(job):
        seq = np.random.SeedSequence([config.seed, tag, job[0] // CHUNK_SIZE])
        return chunk_fn(np.random.Generator(np.random.PCG64(seq)), *job)

    if workers <= 1:
        return [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(run, jobs))


def _fold(parts):
    """Add (sum, sum of squares) partials left to right from 0.0, unlike sum() from 3.12;
    a None partial, of a group that did not draw the chunk, adds nothing."""
    sums = itertools.repeat((0.0, 0.0))
    for part in parts:
        sums = [(s, q) if ab is None else (s + ab[0], q + ab[1]) for (s, q), ab in zip(sums, part)]
    return sums


def _sums(config, tag, n, score, workers=1, counts=None):
    """(sum, sum of squares) of each array score(z, r2, x1, norm_sq, u, d, groups)
    yields, k per listed group g, over counts[g] draws (by default one group of n)."""
    counts = [n] if counts is None else counts
    for count in counts:
        _check_n(count)

    def sum_sq(v):
        total = float(v.sum())
        np.multiply(v, v, out=v)
        return total, float(v.sum())

    def chunk(rng, start, m):
        drawn = [g for g, count in enumerate(counts) if min(CHUNK_SIZE, count - start) == m]
        z = rng.standard_normal(m)
        r2, *bufs = [np.zeros(min(m, _BLOCK)) for _ in range(5)]
        arrays = ((z[lo:lo + _BLOCK], _chisq(rng, config.p, r2[:m - lo]),
                   *(b[:m - lo] for b in bufs)) for lo in range(0, m, _BLOCK))
        # sum_sq squares each array in place; score may reuse it once it resumes
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _fold(map(sum_sq, score(*block, drawn)) for block in arrays)
        k, sums = len(sums) // len(drawn), iter(sums)
        return [next(sums) if g in drawn else None for g in range(len(counts)) for _ in range(k)]

    return _fold(_map_chunks(config, tag, counts, chunk, workers))


def _moments_to_estimate(total, total_sq, n):
    # max(var, 0.0) clamps a negative rounding and keeps the NaN of an overflow
    var = max((total_sq - total * total / n) / (n - 1), 0.0)
    return RiskEstimate(mean=total / n, stderr=math.sqrt(var / n), n=n)


def _check_finite_risk(p, specs):
    """At p <= 2, E[1/|X|^2] diverges, so c/|x|^2 shrinkage has infinite risk."""
    if p <= 2 and any(spec.a == 0.0 and spec.c != 0.0 for spec in specs):
        raise ValueError(f"risk of c/|x|^2 shrinkage (a = 0) is infinite at p={p} <= 2")


def _chisq(rng, p, out):
    """chi^2_{p-1} draws into `out`, read from the stream as rng.chisquare(p - 1)
    reads it: chisquare(df) is 2 standard_gamma(df/2).  At p = 1 `out` is kept."""
    if p >= 2:
        rng.standard_gamma((p - 1) / 2, out=out)
        out *= 2.0
    return out


def _paired(thetas, specs, z, r2, x1, norm_sq, u, d, groups=None):
    """Yield d = |x - theta|^2 - |tau x - theta|^2 = g (u - g |x|^2) into `d`, for each
    theta (thetas[k] of each listed group k), then each spec; x1, norm_sq, u are scratch."""
    for t in thetas if groups is None else [thetas[k] for k in groups]:
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


def simulate_cloud(config: ProblemConfig, n: int) -> CloudSample:
    """n independent reduced observations; bit-identical for a given seed."""
    _check_n(n, min_n=1)
    x1, r = np.empty(n), np.zeros(n)

    def chunk(rng, lo, m):
        rng.standard_normal(out=x1[lo:lo + m])
        x1[lo:lo + m] += config.theta_norm
        np.sqrt(_chisq(rng, config.p, r[lo:lo + m]), out=r[lo:lo + m])

    _map_chunks(config, _TAG_CLOUD, [n], chunk)
    return CloudSample(x1=x1, r=r)


def estimate_risk_mc(
    config: ProblemConfig, spec: EstimatorSpec, n: int, workers: int = 1
) -> RiskEstimate:
    """Empirical risk of the estimator: mean squared error over n replications."""
    _check_finite_risk(config.p, [spec])

    def score(z, r2, x1, norm_sq, u, d, _):
        # |tau x - theta|^2 = |x - theta|^2 - d = z^2 + r2 - d, into the spent u
        [d] = _paired([config.theta_norm], [spec], z, r2, x1, norm_sq, u, d)
        np.multiply(z, z, out=u)
        u += r2
        u -= d
        yield u

    [(total, total_sq)] = _sums(config, _TAG_RISK, n, score, workers)
    return _moments_to_estimate(total, total_sq, n)


def _config_list(config):
    configs = [config] if isinstance(config, ProblemConfig) else list(config)
    if len({(cfg.p, cfg.seed) for cfg in configs}) != 1:
        raise ValueError("a config list must be non-empty and share p and seed")
    return configs


def estimate_delta_mc(config, specs, n: int, workers: int = 1, counts=None):
    """Paired risk-difference estimate: loss(identity) - loss(spec) on common draws.

    `specs` may be an EstimatorSpec, a bare shrinkage constant c (a = 0), or
    a list of either.  A single spec gives one RiskEstimate; a list gives one
    per entry, all scored on the same draws against one identity loss, and
    each bit-equal to the estimate for that entry alone.  Pairing on the same
    reduced observation cancels most of the sampling variance of differencing
    two independent risk estimates.  `config` may be a list of ProblemConfigs
    that share p and seed: each chunk is drawn once and scored at every theta,
    and each config's result is bit-equal to its own call.  `counts` gives each
    config its own replication count, n being the largest, and keeps that.
    """
    single = not isinstance(specs, (list, tuple))
    specs = [
        s if isinstance(s, EstimatorSpec) else EstimatorSpec.shrink(float(s))
        for s in ([specs] if single else specs)
    ]
    configs = _config_list(config)
    counts = [n] * len(configs) if counts is None else list(counts)
    if len(counts) != len(configs) or max(counts) != n:
        raise ValueError("counts must give one count per config, the largest equal to n")
    _check_finite_risk(configs[0].p, specs)

    score = functools.partial(_paired, [cfg.theta_norm for cfg in configs], specs)
    sums = iter(_sums(configs[0], _TAG_DELTA, n, score, workers, counts))
    results = [[_moments_to_estimate(*next(sums), m) for _ in specs] for m in counts]
    results = [r[0] for r in results] if single else results
    return results[0] if isinstance(config, ProblemConfig) else results


def estimate_exceedance_prob(config, n: int, workers: int = 1):
    """Empirical P(|X| >= |theta|), with a binomial standard error; `config` may
    be a list, as in estimate_delta_mc, for one estimate each on one set of draws."""
    configs = _config_list(config)

    def score(z, r2, x1, norm_sq, u, d, groups):
        # |X|^2 >= t^2 as z (2t + z) + r2 >= 0 with z = x1 - t: for a huge t,
        # t + z rounds to t and t * t overflows, and either loses the event.
        for g in groups:
            np.add(2.0 * configs[g].theta_norm, z, out=x1)
            x1 *= z
            x1 += r2
            yield np.greater_equal(x1, 0.0, out=d)  # 1.0 per hit: the count stays exact

    sums = _sums(configs[0], _TAG_EXCEED, n, score, workers, [n] * len(configs))
    phats = [hits / n for hits, _ in sums]
    results = [RiskEstimate(mean=ph, stderr=math.sqrt(ph * (1 - ph) / n), n=n) for ph in phats]
    return results[0] if isinstance(config, ProblemConfig) else results
