"""Takeover and level-time measurements against exact chains and bounds."""

import math
import random
import tracemalloc

import pytest

from ealab import (ConfigError, EaConfig, Ea0Spec, EvolutionState, OneMax,
                   TakeoverSpec, ea0_growth_lb, ea0_once, measure_level_time,
                   measure_takeover, min_level_bound_general, mix64, run_ea0,
                   summarize, takeover_bound_general)
from ealab.takeover import _q_copy

import oracles


def _upper(stats, bound):
    # one-sided check with sampling noise allowance
    se = stats.stderr if math.isfinite(stats.stderr) else 0.0
    return stats.mean <= bound + 3 * se


class TestSpecs:
    # construction validates, so each bad spec is built inside the block
    def test_takeover_validation(self):
        good = TakeoverSpec(10, 4, 4, i=5, j1=1, j2=4)
        good.validate()
        for n, i, j1, j2, kwargs in ((10, 5, 0, 4, {}), (10, 5, 3, 2, {}),
                                     (10, 5, 1, 5, {}), (10, 10, 1, 4, {}),
                                     (10, 5, 1, 4, {"replicates": 0}),
                                     (10, 5, 1, 4, {"max_iterations": 0}),
                                     (10 ** 400, 5, 1, 4, {})):
            with pytest.raises(ConfigError):
                TakeoverSpec(n, 4, 4, i=i, j1=j1, j2=j2, **kwargs)

    def test_ea0_validation(self):
        Ea0Spec(10, 4, 8, 1, 4).validate()
        for args, kwargs in (((1, 4, 8, 1, 4), {}), ((10, 4, 0, 1, 4), {}),
                             ((10, 4, 8, 4, 4), {}), ((10, 4, 8, 1, 4), {"replicates": 0}),
                             ((10, 4, 8, 1, 4), {"max_iterations": 0}),
                             ((10 ** 400, 4, 8, 1, 4), {})):
            with pytest.raises(ConfigError):
                Ea0Spec(*args, **kwargs)


class TestTakeover:
    def test_two_member_chain(self):
        # mu = 2 on the middle plateau reduces to an exact two-state chain
        spec = TakeoverSpec(10, 2, 2, i=5, j1=1, j2=2, replicates=10 ** 4, seed=101)
        stats = measure_takeover(spec)
        expected = oracles.two_member_takeover_mean(10, 5)
        assert stats.exhausted == 0
        assert abs(stats.mean - expected) <= 0.05 * expected

    def test_huge_lambda_takes_one_step(self):
        spec = TakeoverSpec(10, 2, 200, i=5, j1=1, j2=2, replicates=500, seed=7)
        stats = measure_takeover(spec)
        assert stats.exhausted == 0
        assert 1.0 <= stats.mean <= 1.1

    def test_takeover_at_least_one_iteration(self):
        stats = measure_takeover(
            TakeoverSpec(10, 4, 40, i=5, j1=1, j2=4, replicates=200, seed=3))
        assert stats.q10 >= 1.0
        assert stats.mean >= 1.0

    @pytest.mark.parametrize("n,mu,lam,i,j1,j2", [
        (50, 8, 8, 25, 1, 8),
        (20, 4, 16, 10, 2, 4),
        (10, 2, 2, 5, 1, 2),
    ])
    def test_mean_below_general_bound(self, n, mu, lam, i, j1, j2):
        spec = TakeoverSpec(n, mu, lam, i=i, j1=j1, j2=j2, replicates=300, seed=11)
        stats = measure_takeover(spec)
        assert stats.exhausted == 0
        assert _upper(stats, takeover_bound_general(mu, lam, j1, j2))

    def test_lambda_doubling_speeds_takeover(self):
        means, ses = [], []
        for lam in (2, 4, 8, 16):
            spec = TakeoverSpec(20, 2, lam, i=10, j1=1, j2=2, replicates=500, seed=23)
            stats = measure_takeover(spec)
            assert stats.exhausted == 0
            means.append(stats.mean)
            ses.append(stats.stderr)
        for k in range(len(means) - 1):
            noise = 3 * (ses[k] ** 2 + ses[k + 1] ** 2) ** 0.5
            assert means[k + 1] <= means[k] + noise

    def test_flat_landscape_markers(self):
        # i = 0: the whole plateau is flat, the marked lineage drifts; many
        # replicates die out and are reported as exhausted, the rest fixate
        spec = TakeoverSpec(10, 4, 8, i=0, j1=3, j2=4,
                            replicates=300, seed=17, max_iterations=300)
        stats = measure_takeover(spec)
        assert stats.count + stats.exhausted == 300
        assert stats.count >= 150   # fixation chance is about j1/mu = 3/4
        assert stats.mean >= 1.0


    def test_markers_censored_at_extinction(self):
        # stopping a run once its marked lineage is extinct must not change
        # the statistics of stepping it to the cap
        spec = TakeoverSpec(10, 4, 8, i=0, j1=2, j2=4,
                            replicates=60, seed=3, max_iterations=150)
        config = EaConfig(10, 4, 8)
        samples, exhausted = [], 0
        for r in range(spec.replicates):
            es = EvolutionState(config, OneMax(10), rng=random.Random(mix64(spec.seed, r)),
                                initial_masks=[0] * 4)
            flags = [True, True, False, False]
            for t in range(1, 151):
                es.step()
                flags = [flags[s] if s < 4 else flags[es.last_parent_idx[s - 4]]
                         for s in es.last_sources]
                if sum(flags) >= 4:
                    samples.append(t)
                    break
            else:
                exhausted += 1
        assert samples and exhausted
        assert measure_takeover(spec) == summarize(samples, exhausted)


class TestEa0:
    def test_trace_shape(self):
        # change points (t, count): both rise strictly from (0, j1), and a
        # finished run ends at its own t with the count at j2 or above
        rng = random.Random(5)
        t, points = ea0_once(rng, 20, 4, 8, 1, 4, cap=10 ** 4)
        assert points[0] == (0, 1)
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(points, points[1:]))
        assert all(1 <= j <= 4 for _, j in points)
        if t is not None:
            assert points[-1][0] == t
            assert points[-1][1] >= 4

    def test_chain_oracle(self):
        spec = Ea0Spec(20, 4, 4, 1, 4, replicates=10 ** 4, seed=41)
        stats = run_ea0(spec)
        expected = oracles.ea0_expected_iterations(20, 4, 4, 1, 4)
        assert abs(stats.mean - expected) <= 0.05 * expected

    def test_nearly_full_start(self):
        stats = run_ea0(Ea0Spec(20, 8, 8, 7, 8, replicates=2000, seed=13))
        assert stats.count > 0
        assert math.isfinite(stats.mean)
        assert stats.mean >= 1.0

    def test_growth_floor(self):
        # the count can at best multiply by 1 + lam/(e mu) per iteration
        spec = Ea0Spec(20, 16, 256, 1, 16, replicates=2000, seed=29)
        stats = run_ea0(spec)
        floor = ea0_growth_lb(16, 256, 1, 16)
        assert stats.exhausted == 0
        assert stats.mean >= floor - 3 * stats.stderr

    def test_huge_lambda_in_constant_memory(self):
        tracemalloc.start()
        try:
            t, _ = ea0_once(random.Random(3), 50, 4, 10 ** 7, 1, 4, cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t is not None
        assert peak < 10 ** 6


    def test_copy_probability_at_large_n(self):
        # (1 - 1/n)^n rounds 1 - 1/n to 1.0 here; the limit is 1/e
        assert _q_copy(10 ** 17) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert _q_copy(20) == pytest.approx((1.0 - 1.0 / 20) ** 20, rel=1e-14)

    def test_cap_past_float_range(self):
        # p1 = 1 - (1 - q/mu)^lam is about 4e-309, so 200 / p1 is inf
        spec = Ea0Spec(20, 10 ** 308, 1, 1, 2, replicates=2)
        with pytest.raises(ConfigError, match="--max-iterations"):
            run_ea0(spec)
        stats = run_ea0(Ea0Spec(20, 10 ** 308, 1, 1, 2, replicates=2, max_iterations=3))
        assert stats.exhausted == 2


class TestLevelTime:
    def test_single_bit_geometric(self):
        # (1+1) stuck one bit short of the optimum: geometric waiting time
        cfg = EaConfig(10, 1, 1, seed=59)
        stats = measure_level_time(cfg, OneMax(10), 9, 10 ** 4)
        expected = oracles.single_flip_level_mean(10)
        assert stats.exhausted == 0
        assert abs(stats.mean - expected) <= 0.05 * expected

    def test_mean_below_scanned_bound(self):
        n, mu, lam, i = 20, 4, 8, 10
        cfg = EaConfig(n, mu, lam, seed=67)
        stats = measure_level_time(cfg, OneMax(n), i, 2000)
        _, bound = min_level_bound_general(n, mu, lam, i)
        assert stats.exhausted == 0
        assert _upper(stats, bound)

    def test_level_zero_with_many_offspring(self):
        cfg = EaConfig(10, 2, 16, seed=71)
        stats = measure_level_time(cfg, OneMax(10), 0, 500)
        assert stats.exhausted == 0
        assert stats.mean <= 2.0

    def test_validation(self):
        cfg = EaConfig(10, 2, 2)
        with pytest.raises(ConfigError):
            measure_level_time(cfg, OneMax(10), 10, 5)
        with pytest.raises(ConfigError):
            measure_level_time(cfg, OneMax(10), 5, 0)
