"""Acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail criterion with its tolerance pinned in the
assertion. Sampling checks use fixed seeds, so reruns are deterministic.
"""

import math
import random
import time

import pytest
import scipy.stats as sps

from ealab import (BitString, CompleteTreeSpec, EaConfig, Ea0Spec,
                   ExperimentTable, OneMax, SweepSpec, TakeoverSpec, Variant,
                   bernoulli_lb, build_complete_tree, compare_dominance,
                   count_at_distance, ea0_growth_lb, fit_ratio,
                   measure_takeover, multbin_lb_check, mutate, run_batch,
                   run_ea0, sudholt_bound, sweep, takeover_bound_fast,
                   takeover_bound_general, total_nodes, verify_p_opt)

import oracles

WORKERS = 4


def test_a1_one_plus_one_matches_chain_oracle():
    # empirical mean within 5% of the absorbing-chain hitting time,
    # and each size measured in under a minute
    for n in (10, 25, 50):
        started = time.monotonic()
        results = run_batch(EaConfig(n, 1, 1, seed=n), OneMax(n), 10 ** 4,
                            workers=WORKERS)
        elapsed = time.monotonic() - started
        mean = sum(r.iterations_to_opt for r in results) / len(results)
        expected = oracles.one_plus_one_expected_iterations(n)
        assert abs(mean - expected) <= 0.05 * expected, (n, mean, expected)
        assert elapsed < 60.0, (n, elapsed)


def test_a2_takeover_means_below_bounds():
    n, i, reps = 50, 25, 10 ** 3
    for mu, lam in ((8, 8), (8, 64), (4, 400)):
        spec = TakeoverSpec(n, mu, lam, i=i, j1=1, j2=mu,
                            replicates=reps, seed=lam)
        stats = measure_takeover(spec)
        assert stats.exhausted == 0
        noise = 3 * stats.stderr
        assert stats.mean <= takeover_bound_general(mu, lam, 1, mu) + noise
        if lam / mu >= math.e ** math.e:
            assert stats.mean <= takeover_bound_fast(mu, lam, 1, mu) + noise
        assert stats.mean <= sudholt_bound(mu, lam) + noise


def test_a3_copy_process_respects_growth_floor():
    stats = run_ea0(Ea0Spec(50, 16, 256, 1, 16, replicates=10 ** 4, seed=33))
    floor = ea0_growth_lb(16, 256, 1, 16)
    assert stats.exhausted == 0
    assert stats.mean >= floor - 3 * stats.stderr

    small = run_ea0(Ea0Spec(50, 4, 4, 1, 4, replicates=10 ** 4, seed=34))
    expected = oracles.ea0_expected_iterations(50, 4, 4, 1, 4)
    assert abs(small.mean - expected) <= 0.05 * expected


def test_a4_fair_parent_population_solves_in_linear_time():
    sizes = (32, 64, 128)
    means = {}
    for n in sizes:
        cfg = EaConfig(n, n, n, Variant.FAIRPLUS, seed=n)
        results = run_batch(cfg, OneMax(n), 500, workers=WORKERS)
        assert all(not r.exhausted for r in results)
        means[n] = sum(r.iterations_to_opt for r in results) / 500
        print(f"n={n} mean={means[n]:.2f} "
              f"ten_log_diag={'ok' if means[n] <= 10 * (math.log(n) + 1) else 'over'}")

    def bound(n):
        return math.log(n) + n

    for n in sizes[1:]:
        assert means[n] / means[32] <= 1.5 * bound(n) / bound(32), (n, means)
    per_bit = [means[n] / n for n in sizes]
    assert max(per_bit) / min(per_bit) <= 4.0, means


def test_a5_master_bound_ratio_stays_in_window():
    started = time.monotonic()
    pairs = ((1, 1), (1, 16), (8, 8), (8, 64), (2, 128))
    rows = []
    for idx, (mu, lam) in enumerate(pairs):
        spec = SweepSpec(ns=(64, 128, 256), mus=(mu,), lams=(lam,),
                         replicates=300, seed=idx, budget_mult=10.0)
        rows.extend(sweep(spec, workers=WORKERS).rows)
    table = ExperimentTable(tuple(rows))
    assert len(table) == 15
    assert all(r.error is None and r.exhausted == 0 for r in table.rows)
    fit = fit_ratio(table)
    assert not fit.no_data
    assert fit.spread <= 20.0, fit
    assert time.monotonic() - started <= 1800.0


def test_a6_complete_tree_counts_are_exact():
    for t in range(5):
        for lam in (1, 2, 3):
            tree = build_complete_tree(CompleteTreeSpec(t, lam, n=4))
            census = tree.census()
            assert sum(census.values()) == total_nodes(t, lam)
            for ell in range(t + 1):
                assert census.get(ell, 0) == count_at_distance(t, lam, ell)


def test_a7_mutation_hit_rate_below_label_bound():
    samples = 10 ** 5
    for n in (8, 12, 16):
        for frac_idx, dist in enumerate((-(-n // 4), n // 2)):
            seed_rng = random.Random(7000 + 10 * n + frac_idx)
            root = BitString.random(n, seed_rng)
            flip = 0
            for pos in seed_rng.sample(range(n), dist):
                flip |= 1 << pos
            target = BitString(n, root.mask ^ flip)
            for ell in (1, 2, 4, n - 1):
                check = verify_p_opt(root, target, ell, samples,
                                     random.Random(9000 + 100 * n + ell))
                assert check.within, (n, dist, ell, check)


def test_a8_elitist_mean_at_most_offspring_only_mean():
    f = OneMax(30)
    report = compare_dominance(
        EaConfig(30, 3, 30, Variant.PLUS, seed=81),
        EaConfig(30, 3, 30, Variant.COMMA, seed=82),
        f, 10 ** 4, workers=WORKERS)
    assert report.stats_a.exhausted == 0
    assert report.stats_b.exhausted == 0
    assert report.stats_a.mean <= report.stats_b.mean + 3 * report.pooled_se


def test_a9_property_suites():
    # elitist traces never lose fitness
    for variant, mu, lam, n in ((Variant.PLUS, 3, 5, 30), (Variant.FAIRPLUS, 4, 4, 20)):
        for res in run_batch(EaConfig(n, mu, lam, variant, seed=91), OneMax(n), 50):
            trace = res.best_fitness_trace
            assert all(a <= b for a, b in zip(trace, trace[1:]))

    # flip counts per mutation follow Binomial(n, p)
    n, p, draws = 20, 0.15, 20000
    rng = random.Random(92)
    zero = BitString.zeros(n)
    counts = [0] * (n + 1)
    for _ in range(draws):
        counts[mutate(zero, p, rng).popcount()] += 1
    expected = [draws * sps.binom.pmf(k, n, p) for k in range(n + 1)]
    obs_pooled, exp_pooled = oracles.pool_cells(counts, expected)
    _, p_value = sps.chisquare(obs_pooled, exp_pooled)
    assert p_value > 1e-3

    # closed-form floor for 1 - (1-x)^k holds pointwise
    rng = random.Random(93)
    for _ in range(10 ** 4):
        x = rng.random()
        k = rng.randrange(1, 200)
        exact = -math.expm1(k * math.log1p(-x))
        assert exact >= bernoulli_lb(x, k) - 1e-12

    # a binomial meets its mean at least a quarter of the time
    samples = 10 ** 5
    emp = multbin_lb_check(100, 0.05, samples, random.Random(94))
    sigma = math.sqrt(0.25 * 0.75 / samples)
    assert emp > 0.25 - 3 * sigma
