"""Closed-form bounds: frozen values, regimes, and cross-checks."""

import math
import random

import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from ealab import (FAST_REGIME, ConfigError, EaConfig, OneMax, ea0_growth_lb,
                   level_bound_fast, level_bound_general, log_plus,
                   master_bound, min_level_bound_general, phase_params,
                   run_batch, sudholt_bound, takeover_bound_fast,
                   takeover_bound_general)
from ealab.rng import binomial_draw

import oracles


class TestLogPlus:
    def test_values(self):
        assert log_plus(1.0) == 1.0
        assert log_plus(math.e ** 2) == pytest.approx(2.0)
        assert log_plus(0.5) == 1.0

    def test_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError):
                log_plus(bad)


class TestMasterBound:
    def test_frozen_one_plus_one(self):
        rep = master_bound(1000, 1, 1)
        assert rep.total == pytest.approx(8907.755278982137, rel=1e-9)

    def test_equal_counts_collapse(self):
        # lam/mu = 1 puts both non-coupon terms at exactly n
        rep = master_bound(50, 8, 8)
        assert rep.term_pop == 50.0
        assert rep.term_fast == 50.0
        assert rep.total == pytest.approx(50 * math.log(50) / 8 + 100.0)
        assert rep.regime == "General"
        # population size n collapses the coupon term to ln n
        assert master_bound(50, 50, 50).total == pytest.approx(math.log(50) + 100.0)

    def test_fast_term_hand_value(self):
        lam = math.e ** (math.e ** 3)
        rep = master_bound(100, 1, lam)
        assert rep.term_fast == pytest.approx(14.936120510359183, rel=1e-6)

    def test_regime_boundary(self):
        assert master_bound(10, 2, math.ceil(2 * FAST_REGIME)).regime == "FastLambda"
        assert master_bound(10, 2, 30).regime == "General"

    def test_validation(self):
        for n, mu, lam in ((1, 1, 1), (10, 0, 1), (10, 1, 0)):
            with pytest.raises(ConfigError):
                master_bound(n, mu, lam)

    @pytest.mark.parametrize("n,mu,lam", [
        (64, 1, 10 ** 400),            # lambda/mu past the float range
        (64, 10 ** 400, 10 ** 400),    # lambda/mu = 1, lambda alone past it
        (10 ** 400, 1, 1),
    ])
    def test_past_the_float_range(self, n, mu, lam):
        with pytest.raises(ConfigError):
            master_bound(n, mu, lam)

    @given(st.integers(2, 10 ** 6), st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_total_dominates_each_term(self, n, mu, lam):
        rep = master_bound(n, mu, lam)
        terms = (rep.term_coupon, rep.term_pop, rep.term_fast)
        assert all(t >= 0.0 and math.isfinite(t) for t in terms)
        assert rep.total == pytest.approx(sum(terms))
        assert rep.total >= max(terms)


class TestPhaseParams:
    def test_boundary_gamma(self):
        p = phase_params(100, 1, math.ceil(FAST_REGIME))
        assert p.gamma == 1

    def test_hand_values(self):
        p = phase_params(100, 4, 400)
        assert p.gamma == 1
        assert p.b1 == pytest.approx(78.28529681377274)
        assert p.b2 == pytest.approx(99.0)
        assert p.b3 == pytest.approx(99.75)
        assert p.b1 < p.b2 < p.b3 < 100

    def test_requires_fast_regime(self):
        with pytest.raises(ConfigError):
            phase_params(100, 4, 40)

    def test_ratio_past_the_float_range(self):
        with pytest.raises(ConfigError):
            phase_params(100, 1, 10 ** 400)


class TestTakeoverGeneral:
    def test_hand_value(self):
        # mu = lam = 7, one fit member to two
        got = takeover_bound_general(7, 7, 1, 2)
        assert got == pytest.approx(2 * math.e * (math.log(2) + 1) + 1)
        assert got == pytest.approx(10.20490242764553)

    def test_huge_lambda_leaves_count_gap(self):
        assert takeover_bound_general(4, 10 ** 12, 1, 4) == pytest.approx(3.0, abs=1e-9)

    def test_shape_flat_in_mu_over_lambda(self):
        # with lam = 1 the leading part scales like mu (ln mu + 1)
        ratios = [takeover_bound_general(mu, 1, 1, mu) / (mu * (math.log(mu) + 1))
                  for mu in (4, 16, 64)]
        assert max(ratios) / min(ratios) <= 1.1

    def test_validation(self):
        for mu, lam, j1, j2 in ((4, 4, 0, 4), (4, 4, 3, 2), (4, 4, 1, 5), (4, 0, 1, 4)):
            with pytest.raises(ConfigError):
                takeover_bound_general(mu, lam, j1, j2)


class TestTakeoverFast:
    def test_boundary_value(self):
        lam = 2 * math.e ** math.e  # ratio lands exactly on the regime edge
        got = takeover_bound_fast(2, lam, 1, 2)
        assert got == pytest.approx(6.704612924345374, abs=1e-3)

    def test_clean_denominator(self):
        # lam = 2 e mu^2 makes ln(lam/(2 e mu)) = ln mu, so the bound is 8
        mu = 4
        lam = 2 * math.e * mu * mu
        assert takeover_bound_fast(mu, lam, 1, mu) == pytest.approx(8.0, abs=1e-9)

    def test_floor_of_four(self):
        for mu, j2 in ((2, 2), (8, 3), (64, 64)):
            assert takeover_bound_fast(mu, 10 ** 9, 1, j2) >= 4.0

    def test_regime_enforced(self):
        with pytest.raises(ConfigError):
            takeover_bound_fast(4, 4 * 15, 1, 4)  # ratio 15 < e^e


class TestLevelBounds:
    def test_general_hand_value(self):
        # n = 10, mu0 = 1, mu = lam, last level: 1 + 2e + e*n/(n-i)
        got = level_bound_general(10, 4, 4, 9, 1)
        assert got == pytest.approx(1 + 2 * math.e + 10 * math.e)
        assert got == pytest.approx(33.61937735009375)

    def test_matches_brute_force_scan(self):
        grid = [(n, mu, lam, i)
                for n in (2, 5, 10, 30, 100, 1000)
                for i in sorted({0, n // 2, n - 1})
                for mu in (1, 2, 3, 4, 7, 16, 50, 300)
                for lam in (1, 2, 3, 8, 64, 1000, 10 ** 5)]
        grid += [(10, 4, 4, 9), (20, 4, 8, 10), (30, 2, 16, 0), (15, 8, 8, 7)]
        for n, mu, lam, i in grid:
            got_m0, got_v = min_level_bound_general(n, mu, lam, i)
            want_m0, want_v = oracles.level_bound_scan(n, mu, lam, i)
            assert got_m0 == want_m0
            assert got_v == pytest.approx(want_v, rel=1e-12)

    def test_huge_mu_needs_no_scan(self):
        # a = 2e mu/lam squared would overflow here; past the float range
        # the bound is refused
        m0, value = min_level_bound_general(1000, 10 ** 200, 64, 500)
        assert m0 == 1
        assert value == level_bound_general(1000, 10 ** 200, 64, 500, 1)
        with pytest.raises(ConfigError, match="float range"):
            min_level_bound_general(1000, 10 ** 400, 64, 500)

    def test_fast_first_term_vanishes_at_mu0_one(self):
        n, mu, lam, i = 50, 2, 2 * 16, 25
        # mu0 = 1 kills the takeover part, leaving waiting term plus constant
        assert level_bound_fast(n, mu, lam, i, 1) == pytest.approx(
            math.e * mu * n / (lam * (n - i)) + 5.0)

    def test_fast_needs_strict_ratio(self):
        lam = math.ceil(2 * FAST_REGIME)
        level_bound_fast(20, 2, lam, 10, 1)
        with pytest.raises(ConfigError):
            level_bound_fast(20, 2, 30, 10, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            level_bound_general(10, 4, 4, 10, 1)  # i out of range
        with pytest.raises(ConfigError):
            level_bound_general(10, 4, 4, 5, 5)  # mu0 > mu


class TestSudholt:
    def test_values(self):
        assert sudholt_bound(1, 1) == 0.0
        base = 32 / (1 - 1 / math.e)
        assert sudholt_bound(5, 1) == pytest.approx(base * 5 + 1)
        assert sudholt_bound(25, 400) == pytest.approx(2 * (base * 25 / 400 + 1))
        assert sudholt_bound(25, 400) == pytest.approx(8.327906827477307, rel=1e-12)

    def test_log5_staircase(self):
        base = 32 / (1 - 1 / math.e)
        assert sudholt_bound(5, 1) == pytest.approx(1 * (base * 5 + 1))
        assert sudholt_bound(6, 1) == pytest.approx(2 * (base * 6 + 1))
        assert sudholt_bound(125, 1) == pytest.approx(3 * (base * 125 + 1))
        assert sudholt_bound(126, 1) == pytest.approx(4 * (base * 126 + 1))

    def test_validation(self):
        with pytest.raises(ConfigError):
            sudholt_bound(0, 1)
        with pytest.raises(ConfigError):
            sudholt_bound(4, 0)


class TestFitnessLevelSum:
    def test_summed_levels_cover_measured_runtime(self):
        n, reps = 100, 1000
        results = run_batch(EaConfig(n, 1, 1, seed=11), OneMax(n), reps)
        ts = [r.iterations_to_opt for r in results]
        mean = sum(ts) / reps
        se = (sum((t - mean) ** 2 for t in ts) / (reps - 1)) ** 0.5 / reps ** 0.5
        total = math.fsum(level_bound_general(n, 1, 1, i, 1) for i in range(n))
        assert total >= mean - 3 * se


class TestProbabilityHelpers:
    def test_bernoulli_pointwise_lower_bound(self):
        # 1 - (1-x)^n >= 1/(1 + 1/(x n))
        rng = random.Random(4242)
        for _ in range(10 ** 4):
            x = rng.random()
            n = rng.randrange(1, 200)
            exact = -math.expm1(n * math.log1p(-x))  # 1 - (1-x)^n
            assert exact >= 1.0 / (1.0 + 1.0 / (x * n)) - 1e-12

    def test_multbin_against_binomial_tail(self):
        # Pr(X >= E[X]) > 1/4 for X ~ Bin(n, p), p > 1/n; the 1e-9 keeps
        # round-off in n*p from dropping the outcome X = E[X]
        n, p, samples = 100, 0.05, 10 ** 5
        rng = random.Random(9)
        emp = sum(binomial_draw(rng, n, p) >= n * p - 1e-9
                  for _ in range(samples)) / samples
        assert emp > 0.25
        # X >= n*p means X >= 5 for integer X, i.e. the survival at 4
        assert abs(emp - sps.binom.sf(int(n * p) - 1, n, p)) < 0.01


class TestEa0GrowthFloor:
    def test_frozen_value(self):
        assert ea0_growth_lb(16, 256, 1, 16) == pytest.approx(1.077709667967809, rel=1e-12)

    def test_mu_near_float_range(self):
        # e * mu overflows here; lambda/mu = 1 does not
        big = 10 ** 308
        assert ea0_growth_lb(big, big, 1, 4) == pytest.approx(
            math.log(2.0) / math.log1p(1.0 / math.e), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ea0_growth_lb(16, 0, 1, 16)
        with pytest.raises(ConfigError):
            ea0_growth_lb(16, 256, 8, 4)
