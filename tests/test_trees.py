"""Complete-tree counting, label-probability bounds, family-tree ancestry."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
import scipy.stats as sps

from ealab import (BitString, ConfigError, EaConfig, MultiOptOneMax, OneMax,
                   count_at_distance, p_opt, q_opt_bound, simulate_family_tree,
                   total_nodes, verify_p_opt)
from ealab.genotype import mutate_mask

import oracles


class _NoDraws:
    """An rng that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


class TestCounting:
    def test_closed_form(self):
        assert count_at_distance(3, 2, 0) == 1
        assert count_at_distance(3, 2, 2) == 12
        assert count_at_distance(3, 2, 5) == 0
        assert total_nodes(0, 7) == 1

    def test_counts_partition_the_tree(self):
        for t, lam in ((0, 1), (3, 2), (5, 3), (10, 2)):
            assert sum(count_at_distance(t, lam, ell)
                       for ell in range(t + 1)) == total_nodes(t, lam)

    def test_validation(self):
        with pytest.raises(ConfigError):
            count_at_distance(3, 2, -1)
        with pytest.raises(ConfigError):
            count_at_distance(-1, 2, 0)
        with pytest.raises(ConfigError):
            count_at_distance(3, 0, 1)


class TestExplicitBuild:
    def test_census_matches_closed_form(self):
        for t, lam in ((0, 2), (1, 3), (2, 2), (3, 2), (4, 4)):
            census = oracles.complete_tree_census(t, lam)
            assert sum(census.values()) == total_nodes(t, lam)
            for ell in range(t + 1):
                assert census.get(ell, 0) == count_at_distance(t, lam, ell)


class TestPOpt:
    def test_values(self):
        assert p_opt(1, 8) == pytest.approx((1 / 7) ** 2)
        assert p_opt(0, 8) == 0.0
        assert p_opt(7, 8) == 1.0
        assert p_opt(50, 8) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            p_opt(-1, 8)
        with pytest.raises(ConfigError):
            p_opt(1, 1)

    def test_monte_carlo_single_mutation(self):
        root = BitString.zeros(8)
        target = BitString.from_string("11110000")
        check = verify_p_opt(root, target, 1, 10 ** 6, random.Random(404))
        rate = oracles.exact_hit_rate_one_mutation(8, 4)
        noise = 3 * math.sqrt(rate * (1 - rate) / 10 ** 6)
        assert abs(check.empirical - rate) <= noise
        assert check.empirical <= check.bound
        assert check.within

    def test_zero_mutations_never_hit(self):
        root = BitString.zeros(8)
        target = BitString.ones(8)
        check = verify_p_opt(root, target, 0, 1000, random.Random(1))
        assert check.hits == 0
        assert check.bound == 0.0
        assert check.within

    def test_premise_enforced(self):
        root = BitString.zeros(12)
        near = BitString.from_string("110000000000")
        far = BitString.from_string("111000000000")
        verify_p_opt(root, far, 1, 10, random.Random(0))  # distance 3 = n/4
        with pytest.raises(ConfigError):
            verify_p_opt(root, near, 1, 10, random.Random(0))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            verify_p_opt(BitString.zeros(8), BitString.ones(12), 1, 10,
                         random.Random(0))

    def test_n_below_two_rejected_before_any_draw(self):
        with pytest.raises(ConfigError, match="n must be >= 2"):
            verify_p_opt(BitString.zeros(1), BitString.ones(1), 1, 10, _NoDraws())

    def test_zero_mutations_at_n_two(self):
        # p = 1/2 makes log1p(-2p) = -inf, which ell = 0 must never multiply
        check = verify_p_opt(BitString.zeros(2), BitString.ones(2), 0, 10 ** 18,
                             _NoDraws())
        assert (check.exact, check.hits) == (0.0, 0)

    @pytest.mark.parametrize("ell", [1, 2, 5])
    @pytest.mark.parametrize("target", ["01", "11"])
    def test_n_two_randomizes_every_bit(self, ell, target):
        check = verify_p_opt(BitString.zeros(2), BitString.from_string(target),
                             ell, 1000, random.Random(ell))
        assert check.exact == 0.25

    def test_subnormal_rate_with_huge_sample_count(self):
        # n = 200, Hamming 136, one mutation: rate about 8e-314
        root = BitString.zeros(200)
        target = BitString(200, (1 << 136) - 1)
        check = verify_p_opt(root, target, 1, 10 ** 18, random.Random(5))
        assert 0.0 < check.exact < sys.float_info.min
        assert check.hits == 0

    def test_huge_sample_count_in_constant_memory(self):
        # n = 2 makes the hit rate 1/4, so the count is about 2.5e6
        tracemalloc.start()
        try:
            check = verify_p_opt(BitString.zeros(2), BitString.from_string("01"), 1,
                                 10 ** 7, random.Random(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(check.hits - 2.5e6) <= 4 * math.sqrt(10 ** 7 * 0.25 * 0.75)
        assert peak < 10 ** 6


class TestHitLaw:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form_matches_mask_chain(self, n):
        # exact distribution of root XOR label after ell mutations, over all
        # 2^n masks, with Pr(x -> y) = p^h (1 - p)^(n - h), h = |x XOR y|
        p = Fraction(1, n)
        step = [p ** h * (1 - p) ** (n - h) for h in range(n + 1)]
        root = random.Random(n).getrandbits(n)
        dist = [Fraction(int(m == 0)) for m in range(1 << n)]
        for ell in range(5):
            for m in range(1 << n):
                if 4 * m.bit_count() < n:
                    continue
                check = verify_p_opt(BitString(n, root), BitString(n, root ^ m),
                                     ell, 1, random.Random(0))
                assert math.isclose(check.exact, float(dist[m]), rel_tol=1e-12,
                                    abs_tol=0.0), (n, ell, m)
            dist = [sum(dist[x] * step[(x ^ y).bit_count()] for x in range(1 << n))
                    for y in range(1 << n)]

    def test_bits_flip_independently_under_the_operator(self):
        # final distance to the target is Bin(d, 1 - r) + Bin(n - d, r)
        n, d, ell, runs = 6, 2, 3, 20000
        r = (1 - (1 - Fraction(2, n)) ** ell) / 2
        near = [math.comb(d, k) * (1 - r) ** k * r ** (d - k) for k in range(d + 1)]
        far = [math.comb(n - d, k) * r ** k * (1 - r) ** (n - d - k)
               for k in range(n - d + 1)]
        pmf = [sum(near[a] * far[k - a] for a in range(d + 1) if 0 <= k - a <= n - d)
               for k in range(n + 1)]
        rng = random.Random(6230)
        target = (1 << d) - 1
        observed = [0] * (n + 1)
        for _ in range(runs):
            m = 0
            for _ in range(ell):
                m = mutate_mask(m, n, 1.0 / n, rng)
            observed[(m ^ target).bit_count()] += 1
        expected = [runs * float(w) for w in pmf]
        assert sps.chisquare(*oracles.pool_cells(observed, expected)).pvalue >= 1e-3


class TestQOpt:
    def test_empty_horizon(self):
        b = q_opt_bound(0, 8, 2, 2)
        assert (b.raw, b.clamped) == (0.0, 0.0)

    @pytest.mark.parametrize("t,n,mu,lam", [(6, 8, 2, 5), (4, 12, 3, 3)])
    def test_log_space_matches_exact_rationals(self, t, n, mu, lam):
        raw = q_opt_bound(t, n, mu, lam).raw
        exact = oracles.q_opt_bound_exact(t, n, mu, lam)
        assert raw == pytest.approx(float(exact), rel=1e-9)

    def test_long_horizon_matches_exact_rationals(self):
        # log C(t, ell) is a running sum over 200 factors
        raw = q_opt_bound(200, 16, 2, 3).raw
        exact = oracles.q_opt_bound_exact(200, 16, 2, 3)
        assert raw == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.parametrize("t,lam", [(1100, 1), (70, 10 ** 5), (15000, 1)])
    def test_past_float_range(self, t, lam):
        b = q_opt_bound(t, 8, 1, lam)
        assert (b.raw, b.clamped) == (math.inf, 1.0)

    @pytest.mark.parametrize("n", [10 ** 306, 10 ** 307], ids=["1e306", "1e307"])
    def test_vanishes_at_huge_n(self, n):
        # at 10^307 every log term is -inf; at 10^306 each is finite but
        # its exp underflows
        b = q_opt_bound(3, n, 1, 1)
        assert (b.raw, b.clamped) == (0.0, 0.0)

    def test_equal_counts_direct_sum(self):
        t, n, mu = 5, 8, 3
        direct = mu * sum(math.comb(t, ell) * p_opt(ell, n)
                          for ell in range(1, t + 1))
        assert q_opt_bound(t, n, mu, mu).raw == pytest.approx(direct, rel=1e-12)

    def test_monotone_in_horizon(self):
        raws = [q_opt_bound(t, 16, 2, 4).raw for t in range(8)]
        assert all(a <= b for a, b in zip(raws, raws[1:]))

    def test_tiny_for_short_horizons(self):
        # four iterations of a (1+1) process on n = 100: every summand is
        # below 2^-25, so the whole failure bound is
        t, n = 4, 100
        for ell in range(1, t + 1):
            assert math.comb(t, ell) * (ell / (n - 1)) ** (n / 4) <= 2.0 ** -25
        b = q_opt_bound(t, n, 1, 1)
        assert b.raw <= 4 * 2.0 ** -25
        assert b.clamped == b.raw

    def test_exact_needs_divisible_length(self):
        with pytest.raises(ConfigError):
            oracles.q_opt_bound_exact(4, 10, 1, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            q_opt_bound(-1, 8, 1, 1)
        with pytest.raises(ConfigError):
            q_opt_bound(4, 1, 1, 1)


class TestFamilyTree:
    def test_initial_optimum(self):
        res = simulate_family_tree(EaConfig(6, 3, 3, seed=2), MultiOptOneMax(6, k=6))
        assert res.iterations == 0
        assert res.hit_optimum
        assert res.depth_counts == ({0: 3},)

    def test_budget_bound_shape(self):
        cfg = EaConfig(50, 2, 2, seed=5, max_iterations=5)
        res = simulate_family_tree(cfg, OneMax(50))
        assert not res.hit_optimum
        assert res.iterations == 5
        assert len(res.depth_counts) == 6
        assert all(sum(c.values()) == 2 for c in res.depth_counts)

    def test_depth_cannot_exceed_iteration(self):
        cfg = EaConfig(30, 4, 6, seed=9, max_iterations=50)
        res = simulate_family_tree(cfg, OneMax(30))
        for k, depth in enumerate(max(c) for c in res.depth_counts):
            assert depth <= k

    def test_population_fits_inside_complete_trees(self):
        # after k iterations, members at depth d cannot outnumber the depth-d
        # slots of mu complete trees of height k
        mu, lam = 8, 8
        for rep in range(100):
            cfg = EaConfig(50, mu, lam, seed=1000 + rep, max_iterations=100)
            res = simulate_family_tree(cfg, OneMax(50))
            for k, counts in enumerate(res.depth_counts):
                for d, c in counts.items():
                    assert c <= mu * count_at_distance(k, lam, d)
