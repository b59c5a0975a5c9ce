import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stein_shrink import (
    EstimatorSpec,
    ProblemConfig,
    estimate_delta_mc,
    estimate_exceedance_prob,
    estimate_risk_mc,
    risk_delta_exact,
    shrink_factor,
    simulate_cloud,
)
from stein_shrink import monte_carlo
from stein_shrink.monte_carlo import _BLOCK, CHUNK_SIZE


def _risk_full_vectors(cfg, spec, n):
    """Reference risk estimate, independent of the reduction: whole p-vectors
    X ~ N(theta, I_p) and the loss in full coordinates, as (mean, stderr)."""
    theta = np.zeros(cfg.p)
    theta[0] = cfg.theta_norm
    x = theta + np.random.default_rng(cfg.seed).standard_normal((n, cfg.p))
    f = shrink_factor(spec, np.einsum("ij,ij->i", x, x), cfg.p)
    d = f[:, None] * x - theta
    loss = np.einsum("ij,ij->i", d, d)
    return loss.mean(), loss.std(ddof=1) / math.sqrt(n)


class TestSimulateCloud:
    def test_fig2_regime_moments(self):
        cfg = ProblemConfig(20, 25.0, seed=7)
        cloud = simulate_cloud(cfg, 2000)
        x1, r2 = cloud.x1, cloud.r**2
        assert len(x1) == len(cloud.r) == 2000
        assert abs(x1.mean() - 25.0) <= 4 / math.sqrt(2000)
        assert abs(r2.mean() - 19.0) <= 4 * math.sqrt(38 / 2000)

    def test_bit_identical_for_same_seed(self):
        cfg = ProblemConfig(5, 2.0, seed=11)
        a = simulate_cloud(cfg, 1500)
        b = simulate_cloud(cfg, 1500)
        assert np.array_equal(a.x1, b.x1) and np.array_equal(a.r, b.r)

    def test_different_seed_differs(self):
        a = simulate_cloud(ProblemConfig(5, 2.0, seed=1), 100)
        b = simulate_cloud(ProblemConfig(5, 2.0, seed=2), 100)
        assert not np.array_equal(a.x1, b.x1)

    def test_single_point(self):
        cloud = simulate_cloud(ProblemConfig(4, 1.0, seed=0), 1)
        assert len(cloud.x1) == len(cloud.r) == 1
        assert cloud.r[0] >= 0

    def test_p1_has_zero_residual(self):
        cloud = simulate_cloud(ProblemConfig(1, 2.0, seed=0), 10)
        assert len(cloud.x1) == 10
        assert (cloud.r == 0.0).all()


class TestRiskEstimation:
    def test_identity_risk_is_p(self):
        cfg = ProblemConfig(7, 3.0, seed=5)
        est = estimate_risk_mc(cfg, EstimatorSpec(), 400_000)
        assert abs(est.mean - 7.0) <= 4 * est.stderr

    def test_window_edge_matches_identity_risk(self):
        p = 6
        cfg = ProblemConfig(p, 2.0, seed=5)
        est = estimate_risk_mc(cfg, EstimatorSpec.shrink(2.0 * (p - 2)), 400_000)
        assert abs(est.mean - p) <= 4 * est.stderr

    def test_workers_do_not_change_result(self):
        cfg = ProblemConfig(5, 1.0, seed=9)
        spec = EstimatorSpec.shrink(3.0)
        a = estimate_risk_mc(cfg, spec, 700_000, workers=1)
        b = estimate_risk_mc(cfg, spec, 700_000, workers=4)
        assert (a.mean, a.stderr, a.n) == (b.mean, b.stderr, b.n)

    def test_identity_risk_is_free_of_theta(self):
        # |x - theta|^2 = z^2 + r2 on every draw.  Formed as (x1 - theta)^2, with
        # x1 = theta + z, it lost z to rounding and read 4.0013 at theta = 1e17.
        ests = [estimate_risk_mc(ProblemConfig(5, t, seed=7), EstimatorSpec(), 200_000)
                for t in (0.0, 3.0, 1e6, 1e17)]
        assert ests == [ests[0]] * 4

    def test_z_path_agrees_with_full_vector_path(self):
        cfg = ProblemConfig(6, 2.0, seed=21)
        spec = EstimatorSpec.shrink(4.0)
        n = 40_000
        z = estimate_risk_mc(cfg, spec, n)
        full_mean, full_stderr = _risk_full_vectors(cfg, spec, n)
        joint = math.hypot(z.stderr, full_stderr)
        assert abs(z.mean - full_mean) <= 4 * joint

    def test_full_vector_path_at_theta_zero(self):
        cfg = ProblemConfig(5, 0.0, seed=21)
        mean, stderr = _risk_full_vectors(cfg, EstimatorSpec(), 40_000)
        assert abs(mean - 5.0) <= 4 * stderr


class TestInfiniteRisk:
    # At p = 2, E[1/|X|^2] diverges: c/|x|^2 shrinkage has infinite risk.
    def test_p2_plain_shrinkage_raises(self):
        cfg = ProblemConfig(2, 1.0, seed=0)
        with pytest.raises(ValueError, match="infinite"):
            estimate_risk_mc(cfg, EstimatorSpec.shrink(1.0), 10_000)
        with pytest.raises(ValueError, match="infinite"):
            estimate_delta_mc(cfg, 1.0, 10_000)
        with pytest.raises(ValueError, match="infinite"):
            estimate_delta_mc(cfg, [EstimatorSpec.shrink_a(1.0, 1.0), 1.0], 10_000)

    def test_p2_regularised_and_identity_estimate(self):
        cfg = ProblemConfig(2, 1.0, seed=0)
        identity = estimate_risk_mc(cfg, EstimatorSpec(), 10_000)
        assert abs(identity.mean - 2.0) <= 4 * identity.stderr
        regular = estimate_risk_mc(cfg, EstimatorSpec.shrink_a(1.0, 1.0), 10_000)
        assert math.isfinite(regular.mean) and regular.stderr > 0
        deltas = estimate_delta_mc(cfg, [0.0, EstimatorSpec.shrink_a(1.0, 1.0)], 10_000)
        assert deltas[0].mean == 0.0
        assert math.isfinite(deltas[1].mean) and deltas[1].stderr > 0


class TestDeltaEstimation:
    def test_c_zero_gives_exact_zero(self):
        est = estimate_delta_mc(ProblemConfig(5, 2.0, seed=1), 0.0, 10_000)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_matches_exact_formula(self):
        cfg = ProblemConfig(20, 25.0, seed=31)
        est = estimate_delta_mc(cfg, 18.0, 300_000)
        assert abs(est.mean - risk_delta_exact(20, 25.0, 18.0)) <= 4 * est.stderr

    def test_accepts_estimator_spec(self):
        cfg = ProblemConfig(5, 20.0, seed=31)
        est = estimate_delta_mc(cfg, EstimatorSpec.shrink_a(3.0, 10.0), 100_000)
        assert est.n == 100_000

    @pytest.mark.parametrize("workers", [1, 4])
    def test_list_entries_equal_single_calls(self, workers):
        # n spans three chunks, the last one partial
        cfg = ProblemConfig(5, 2.0, seed=13)
        specs = [1.0, 3.0, EstimatorSpec.shrink_a(3.0, 10.0)]
        n = 2 * CHUNK_SIZE + 1000
        together = estimate_delta_mc(cfg, specs, n, workers=workers)
        alone = [estimate_delta_mc(cfg, spec, n, workers=workers) for spec in specs]
        assert together == alone

    def test_config_list_with_one_spec_gives_one_estimate_per_config(self):
        configs = [ProblemConfig(5, t, seed=13) for t in (1.0, 4.0)]
        got = estimate_delta_mc(configs, 3.0, 10_000)
        assert got == [estimate_delta_mc(cfg, 3.0, 10_000) for cfg in configs]

    @pytest.mark.parametrize("configs", [
        [ProblemConfig(5, 1.0, seed=3), ProblemConfig(6, 1.0, seed=3)],
        [ProblemConfig(5, 1.0, seed=3), ProblemConfig(5, 1.0, seed=4)],
        [],
    ], ids=["mixed-p", "mixed-seed", "empty"])
    def test_config_list_must_share_p_and_seed(self, monkeypatch, configs):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the configs")

        monkeypatch.setattr(monte_carlo, "_map_chunks", no_draws)
        with pytest.raises(ValueError, match="share p and seed"):
            estimate_delta_mc(configs, 1.0, 10_000)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_overflow_is_a_non_finite_estimate_not_a_warning(self, workers):
        # pytest turns a warning into an error, in a worker thread too
        est = estimate_delta_mc(ProblemConfig(5, 1.0, seed=0), 1e300, 100, workers=workers)
        assert est.mean == -math.inf and math.isnan(est.stderr)

    def test_overflowed_square_sum_gives_nan_stderr_not_zero(self):
        est = estimate_delta_mc(ProblemConfig(3, 0.0, seed=0), 1e150, 100_000)
        assert math.isfinite(est.mean) and math.isnan(est.stderr)

    def test_paired_beats_unpaired(self):
        p, t, c, n = 8, 3.0, 6.0, 200_000
        paired = estimate_delta_mc(ProblemConfig(p, t, seed=41), c, n)
        r0 = estimate_risk_mc(ProblemConfig(p, t, seed=42), EstimatorSpec(), n)
        r1 = estimate_risk_mc(ProblemConfig(p, t, seed=43), EstimatorSpec.shrink(c), n)
        unpaired_se = math.hypot(r0.stderr, r1.stderr)
        assert paired.stderr < unpaired_se

    def test_norm_sq_mean_identity(self):
        # sample mean of |X|^2 near theta^2 + p with variance (2p + 4 theta^2)/n
        cfg = ProblemConfig(100, 5.0, seed=17)
        cloud = simulate_cloud(cfg, 100_000)
        nsq = cloud.x1**2 + cloud.r**2
        gate = 4 * math.sqrt((2 * 100 + 4 * 25.0) / 100_000)
        assert abs(nsq.mean() - 125.0) <= gate


def _longdouble(p, t, spec, n, seed, tag=3):
    """(mean, stderr) in np.longdouble of |x - theta|^2 - |tau x - theta|^2 (tag 3,
    the paired difference) or of |tau x - theta|^2 (tag 2, the risk), on the chunk
    draws the estimator makes: SeedSequence([seed, tag, i]) for chunk i."""
    d = []
    for i, lo in enumerate(range(0, n, CHUNK_SIZE)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, i])))
        m = min(CHUNK_SIZE, n - lo)
        z = rng.standard_normal(m).astype(np.longdouble)
        r2 = rng.chisquare(p - 1, m).astype(np.longdouble)
        x1 = t + z
        tau = 1 - spec.c / (spec.a + x1 * x1 + r2)
        loss = (tau * x1 - t) ** 2 + tau * tau * r2
        d.append(z * z + r2 - loss if tag == 3 else loss)
    d = np.concatenate(d)
    mean = d.sum() / n
    return float(mean), float(np.sqrt(((d - mean) ** 2).sum() / (n - 1) / n))


class TestBlockedDifference:
    @pytest.mark.parametrize("n", [2, _BLOCK, _BLOCK + 1, CHUNK_SIZE + 1])
    def test_matches_longdouble_direct_difference(self, n):
        specs = [EstimatorSpec.shrink(3.0), EstimatorSpec.shrink_a(3.0, 10.0)]
        configs = [ProblemConfig(5, t, seed=29) for t in (0.0, 3.0)]
        got = estimate_delta_mc(configs, specs, n)
        assert got == estimate_delta_mc(configs, specs, n, workers=4)
        for cfg, ests in zip(configs, got):
            for spec, est in zip(specs, ests):
                mean, stderr = _longdouble(5, cfg.theta_norm, spec, n, 29)
                assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
                assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, _BLOCK + 1, CHUNK_SIZE + 1])
    def test_risk_matches_longdouble_loss(self, n):
        specs = [EstimatorSpec(), EstimatorSpec.shrink(3.0), EstimatorSpec.shrink_a(3.0, 10.0)]
        for t in (0.0, 3.0):
            cfg = ProblemConfig(5, t, seed=29)
            for spec in specs:
                est = estimate_risk_mc(cfg, spec, n)
                assert est == estimate_risk_mc(cfg, spec, n, workers=4)
                mean, stderr = _longdouble(5, t, spec, n, 29, tag=2)
                assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
                assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    def test_no_cancellation_at_large_theta(self):
        # d = g (u - g|x|^2) ~ 2c z/theta: se sqrt(n) theta/(2c) is the sample
        # SD of z at every large theta.  Two nearly equal losses, subtracted,
        # gave 0.99987 / 0.99328 / 0 here.
        n, c, thetas = 1 << 20, 3.0, (1e6, 1e8, 1e12)
        ests = estimate_delta_mc([ProblemConfig(5, t, seed=7) for t in thetas], c, n)
        sds = [e.stderr * math.sqrt(n) * t / (2 * c) for e, t in zip(ests, thetas)]
        assert ests[-1].stderr > 0
        assert sds[1] == pytest.approx(sds[0], rel=1e-6)
        assert sds[2] == pytest.approx(sds[0], rel=1e-6)


class TestExceedance:
    def test_theta_zero_is_certain(self):
        est = estimate_exceedance_prob(ProblemConfig(4, 0.0, seed=0), 10_000)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_large_theta_limit_half(self):
        est = estimate_exceedance_prob(ProblemConfig(20, 1e4, seed=2), 200_000)
        assert abs(est.mean - 0.5) <= 4 * est.stderr

    def test_small_theta_near_one(self):
        est = estimate_exceedance_prob(ProblemConfig(20, 1.0, seed=2), 100_000)
        assert est.mean > 0.99

    def test_p1_supported(self):
        est = estimate_exceedance_prob(ProblemConfig(1, 2.0, seed=3), 50_000)
        assert 0 < est.mean < 1


class TestBitExactRegression:
    # float.hex of (mean, stderr): any reordering of a floating-point operation
    # in the sampling, loss or reduction path moves a last bit here.  The
    # paired-difference pins were recorded when it was first scored in blocks
    # as g (u - g |x|^2); the risk and exceedance pins are older.  The golden
    # CSVs in test_cli.py hold only single-chunk plain shrinkage.
    N3 = 2 * CHUNK_SIZE + 12345  # three chunks, the last one partial
    N2 = CHUNK_SIZE + 777

    DELTA_P5 = [
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.eed5858cda584p-2", "0x1.f2878f6f8a8ebp-12"),
        ("0x1.bdd185c111b30p-1", "0x1.da645666c107bp-10"),
        ("0x1.b9ecb4c86f3cep-1", "0x1.7c7ad7f368222p-11"),
    ]
    DELTA_C02 = ("0x1.edeb401162de2p-1", "0x1.201794c187be1p-5")
    # the same five pins from the difference of two losses, scored per chunk
    OLD_DELTA = [
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.eed5858cda584p-2", "0x1.f2878f6f8a8eap-12"),
        ("0x1.bdd185c111b32p-1", "0x1.da645666c107dp-10"),
        ("0x1.b9ecb4c86f3ccp-1", "0x1.7c7ad7f368224p-11"),
        ("0x1.edeb401162de1p-1", "0x1.201794c187be1p-5"),
    ]

    @staticmethod
    def _hex(est):
        return est.mean.hex(), est.stderr.hex()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_delta_list_three_chunks(self, workers):
        specs = [0.0, 1.0, 3.0, EstimatorSpec.shrink_a(3, 10)]
        got = estimate_delta_mc(ProblemConfig(5, 3.0, seed=23), specs, self.N3, workers)
        assert [self._hex(e) for e in got] == self.DELTA_P5

    @pytest.mark.parametrize("workers", [1, 4])
    def test_config_list_equals_per_theta_calls(self, workers):
        # one set of draws scored at each theta, a duplicate theta included
        specs = [0.0, 1.0, EstimatorSpec.shrink_a(3, 10)]
        configs = [ProblemConfig(5, t, seed=23) for t in (0.0, 3.0, 3.0, 25.0)]
        together = estimate_delta_mc(configs, specs, self.N3, workers)
        alone = [estimate_delta_mc(cfg, specs, self.N3, workers) for cfg in configs]
        assert [list(map(self._hex, ests)) for ests in together] == [
            list(map(self._hex, ests)) for ests in alone
        ]
        # theta = 3 still gives the values pinned before draws were shared
        pinned = [self.DELTA_P5[k] for k in (0, 1, 3)]
        assert list(map(self._hex, together[1])) == list(map(self._hex, together[2])) == pinned

    def test_delta_c02_cell(self):
        est = estimate_delta_mc(ProblemConfig(3, 0.0, seed=17), 1.0, self.N2, workers=4)
        assert self._hex(est) == self.DELTA_C02

    def test_delta_pins_moved_only_by_rounding(self):
        # the g-form and the block sums moved no pin by more than 3e-16
        for new, old in zip(self.DELTA_P5 + [self.DELTA_C02], self.OLD_DELTA):
            for a, b in zip(map(float.fromhex, new), map(float.fromhex, old)):
                assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    RISK_SPECS = [EstimatorSpec.shrink(3), EstimatorSpec.shrink_a(3, 10)]
    RISK = [
        ("0x1.087b6e3d413c5p+2", "0x1.e33233c84d050p-9"),
        ("0x1.08e4702195892p+2", "0x1.ddc4bcabae0bcp-9"),
    ]
    # the same two pins from the tau-form loss |tau x - theta|^2, scored per chunk
    OLD_RISK = [
        ("0x1.087b6e3d413c5p+2", "0x1.e33233c84d050p-9"),
        ("0x1.08e4702195892p+2", "0x1.ddc4bcabae0bap-9"),
    ]

    @pytest.mark.parametrize("spec, expected", list(zip(RISK_SPECS, RISK)))
    def test_risk(self, spec, expected):
        est = estimate_risk_mc(ProblemConfig(5, 3.0, seed=23), spec, self.N2)
        assert self._hex(est) == expected

    def test_risk_pins_moved_only_by_rounding(self):
        # the g-form risk z^2 + r2 - d moved one stderr by 2 ulp
        for new, old in zip(self.RISK, self.OLD_RISK):
            for a, b in zip(map(float.fromhex, new), map(float.fromhex, old)):
                assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    def test_exceedance(self):
        est = estimate_exceedance_prob(ProblemConfig(5, 2.0, seed=23), self.N2)
        assert self._hex(est) == ("0x1.b3409e1c039f2p-1", "0x1.0248887bec9b2p-11")

    @pytest.mark.parametrize("p, expected", [
        (2, ("0x1.35157c393ec81p-1", "0x1.61e856c3307aep-11")),  # chi^2_1: gamma shape 1/2
        (1, ("0x1.00563f473e189p-1", "0x1.69c537e3c7973p-11")),  # no chi-square draw
    ])
    def test_exceedance_at_small_p(self, p, expected):
        est = estimate_exceedance_prob(ProblemConfig(p, 2.0, seed=23), self.N2)
        assert self._hex(est) == expected

    CLOUD_SHA256 = {
        1: "d0df8eee61708d28949b6918b6413d4a9a85ad9981f07f55c4ce9c0dde838fc1",
        2: "7f9fb25ed5b84769b7fa08a3e7c8e64d50d3303c1b44f49bf7c8d0fe763715f3",
        5: "0117b193393e3a8f5f729cbd561f1cd2462bccb3fc7b3b92c73ebfc3fc5406b7",
        20: "92ab749e7512d3032e39614642dca08b8b6c18ecc31bc901d108bea15a3eed9b",
    }

    @pytest.mark.parametrize("p", sorted(CLOUD_SHA256))
    def test_cloud_three_chunks(self, p):
        cloud = simulate_cloud(ProblemConfig(p, 3.0, seed=23), self.N3)
        digest = hashlib.sha256(cloud.x1.tobytes() + cloud.r.tobytes()).hexdigest()
        assert digest == self.CLOUD_SHA256[p]

    # theta = 25 shares the first two chunks of theta = 0's three; theta = 1 ends on a
    # chunk edge; theta = 4 stays inside the first chunk; theta = 3 repeats a count
    COUNTS = [(0.0, N3), (25.0, 2 * CHUNK_SIZE + 999), (1.0, 2 * CHUNK_SIZE), (4.0, 1000),
              (3.0, 2 * CHUNK_SIZE + 999)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_per_config_counts_equal_per_config_calls(self, workers):
        specs = [1.0, EstimatorSpec.shrink_a(3, 10)]
        configs = [ProblemConfig(5, t, seed=23) for t, _ in self.COUNTS]
        counts = [m for _, m in self.COUNTS]
        together = estimate_delta_mc(configs, specs, self.N3, workers, counts=counts)
        alone = [estimate_delta_mc(cfg, specs, m, workers) for cfg, m in zip(configs, counts)]
        assert [list(map(self._hex, ests)) for ests in together] == [
            list(map(self._hex, ests)) for ests in alone
        ]
        assert [[e.n for e in ests] for ests in together] == [[m, m] for m in counts]

    def test_per_config_counts_draw_each_chunk_once(self, monkeypatch):
        # a chunk is keyed by its index and its length: the full chunks 0 and 1 serve
        # four counts, and each distinct last chunk is drawn at its own length
        seen, lengths = [], []
        seed_sequence, chisq = np.random.SeedSequence, monte_carlo._chisq

        def spy_seq(entropy):
            seen.append(entropy[2])
            return seed_sequence(entropy)

        def spy_chisq(rng, p, out):
            lengths.append(len(out))
            return chisq(rng, p, out)

        monkeypatch.setattr(np.random, "SeedSequence", spy_seq)
        monkeypatch.setattr(monte_carlo, "_chisq", spy_chisq)
        configs = [ProblemConfig(5, t, seed=23) for t, _ in self.COUNTS]
        estimate_delta_mc(configs, 1.0, self.N3, counts=[m for _, m in self.COUNTS])
        # (0, C), (1, C), (2, 12345), (2, 999) and (0, 1000)
        assert sorted(seen) == [0, 0, 1, 2, 2]
        assert sum(lengths) == 2 * CHUNK_SIZE + 12345 + 999 + 1000

    @pytest.mark.parametrize("counts, n", [([10, 20], 10), ([10], 10), ([1, 10], 10)],
                             ids=["n-not-largest", "one-count-two-configs", "count-below-2"])
    def test_bad_counts_are_refused(self, counts, n):
        configs = [ProblemConfig(5, t, seed=23) for t in (1.0, 2.0)]
        with pytest.raises(ValueError):
            estimate_delta_mc(configs, 1.0, n, counts=counts)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_exceedance_config_list_equals_per_config_calls(self, workers):
        configs = [ProblemConfig(5, t, seed=23) for t in (0.0, 2.0, 1e4, 2.0, 1e200)]
        together = estimate_exceedance_prob(configs, self.N3, workers)
        assert together == [estimate_exceedance_prob(cfg, self.N3, workers) for cfg in configs]
        assert self._hex(estimate_exceedance_prob(configs[1:2], self.N2)[0]) == (
            "0x1.b3409e1c039f2p-1", "0x1.0248887bec9b2p-11")

    def test_chunk_partials_are_summed_left_to_right(self, monkeypatch):
        # a compensated sum (sum() of floats from Python 3.12 on) gives (1.0, 1.0) first
        parts = [[(1.0, 1.0), (2.0, 0.5)], [(1e100, 1e100), (1.0, 0.5)],
                 [(-1e100, -1e100), (0.5, 4.0)]]
        monkeypatch.setattr(monte_carlo, "_map_chunks", lambda *args, **kwargs: parts)
        assert monte_carlo._sums(None, 0, 3, None) == [(0.0, 0.0), (3.5, 5.0)]


@pytest.mark.parametrize("p", [2, 3, 4, 5, 20, 10**6])
def test_blocked_chi_square_reads_the_stream_as_chisquare_does(p):
    # chisquare(df) is 2 standard_gamma(df/2), one variate after another, so
    # drawing a chunk block by block gives the same bits and leaves the same state
    m = 2 * _BLOCK + 7
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = [monte_carlo._chisq(rng, p, np.empty(min(_BLOCK, m - lo))) for lo in range(0, m, _BLOCK)]
    assert np.concatenate(got).tobytes() == ref.chisquare(p - 1, m).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


class TestMemoryCeiling:
    # tracemalloc sees numpy's buffers.  A chunk holds its CHUNK_SIZE normals
    # and five block-sized buffers, never its chi-square draws whole.
    @staticmethod
    def _peak(fn, *args, n):
        fn(*args, 2)  # the first draw imports modules: not a chunk's memory
        tracemalloc.start()
        try:
            fn(*args, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("estimate, args", [
        (estimate_delta_mc, [[1.0, 3.0]]),
        (estimate_risk_mc, [EstimatorSpec.shrink(3.0)]),
        (estimate_exceedance_prob, []),
    ], ids=["delta", "risk", "exceedance"])
    def test_one_chunk_holds_little_beyond_its_normals(self, estimate, args):
        peak = self._peak(estimate, ProblemConfig(5, 2.0, seed=3), *args, n=CHUNK_SIZE)
        assert peak < 1.25 * CHUNK_SIZE * 8

    def test_two_workers_hold_two_chunks(self):
        # four chunks on two threads: two chunks' normals and buffers live at once, not four
        estimate = functools.partial(estimate_delta_mc, workers=2)
        peak = self._peak(estimate, ProblemConfig(5, 2.0, seed=3), [1.0, 3.0], n=4 * CHUNK_SIZE)
        assert peak < 2.5 * CHUNK_SIZE * 8

    def test_cloud_holds_little_beyond_its_two_outputs(self):
        n = TestBitExactRegression.N3
        peak = self._peak(simulate_cloud, ProblemConfig(20, 3.0, seed=3), n=n)
        assert peak < 1.1 * 16 * n
