"""Engine variants: run law, determinism, selection invariants."""

import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from ealab import (BitString, ConfigError, EaConfig, EvolutionState,
                   MultiOptOneMax, OneMax, TakeoverSpec,
                   UniqueOptGeneric, Variant, compare_dominance,
                   measure_level_time, measure_takeover, mix64,
                   resolve_budget, run, run_batch)
from ealab import engines
from ealab.engines import _level_table, evolve_levels

import oracles


class TestConfigValidation:
    # construction validates, so each bad config is built inside the block
    def test_basic_ranges(self):
        for args, kwargs in (((0, 1, 1), {}), ((5, 0, 1), {}), ((5, 1, 0), {}),
                             ((5, 1, 1), {"c": 0.0}), ((5, 1, 1), {"c": 6.0}),
                             ((5, 1, 1), {"max_iterations": 0}),
                             ((5, 1, 10 ** 30), {}), ((5, 1, 10 ** 400), {})):
            with pytest.raises(ConfigError):
                EaConfig(*args, **kwargs)
        EaConfig(5, 1, 10 ** 15).validate()

    def test_comma_needs_enough_offspring(self):
        with pytest.raises(ConfigError):
            EaConfig(10, 4, 3, Variant.COMMA)
        EaConfig(10, 4, 4, Variant.COMMA).validate()

    def test_fairplus_needs_equal_counts(self):
        with pytest.raises(ConfigError):
            EaConfig(10, 4, 8, Variant.FAIRPLUS)
        EaConfig(10, 4, 4, Variant.FAIRPLUS).validate()

    def test_replace_validates(self):
        config = EaConfig(10, 4, 4, Variant.FAIRPLUS)
        with pytest.raises(ConfigError):
            replace(config, lam=8)

    def test_mutation_probability(self):
        assert EaConfig(20, 1, 1, c=2.0).p == 0.1

    def test_budget_resolution(self):
        assert resolve_budget(EaConfig(10, 1, 1, max_iterations=7)) == 7
        auto = resolve_budget(EaConfig(10, 1, 1))
        assert auto >= 10  # ten times a positive bound total


class TestRunBasics:
    def test_initial_optimum_means_zero_iterations(self):
        # every string is optimal, so the pre-loop check must fire
        f = MultiOptOneMax(12, k=12)
        res = run(EaConfig(12, 3, 5, seed=0), f)
        assert res.iterations_to_opt == 0
        assert res.hit_optimum
        assert res.evaluations == 3
        assert len(res.best_fitness_trace) == 1

    def test_initial_optimum_on_onemax(self):
        # tiny n: some seed samples the all-ones string at initialization
        f = OneMax(2)
        hits = [s for s in range(200)
                if run(EaConfig(2, 1, 1, seed=s, max_iterations=1), f).iterations_to_opt == 0]
        assert hits, "no seed sampled the optimum at init for n=2"

    def test_determinism(self):
        cfg = EaConfig(25, 2, 3, seed=99)
        f = OneMax(25)
        a = [r.iterations_to_opt for r in run_batch(cfg, f, 20)]
        b = [r.iterations_to_opt for r in run_batch(cfg, f, 20)]
        assert a == b

    def test_single_replicate_matches_run_with_derived_seed(self):
        cfg = EaConfig(20, 2, 2, seed=5)
        f = OneMax(20)
        batch = run_batch(cfg, f, 1)
        direct = run(replace(cfg, seed=mix64(5, 0)), f)
        assert batch[0] == direct

    def test_budget_one_exhausts(self):
        cfg = EaConfig(30, 2, 2, seed=1, max_iterations=1)
        f = OneMax(30)
        for res in run_batch(cfg, f, 100):
            assert res.exhausted or res.iterations_to_opt == 0
            if res.exhausted:
                assert res.iterations_to_opt is None
                assert not res.hit_optimum

    def test_evaluation_accounting(self):
        f = OneMax(15)
        for mu, lam, variant in ((1, 1, Variant.PLUS), (3, 5, Variant.PLUS),
                                 (2, 4, Variant.COMMA), (3, 3, Variant.FAIRPLUS)):
            cfg = EaConfig(15, mu, lam, variant, seed=42, max_iterations=2000)
            res = run(cfg, f)
            iters = res.iterations_to_opt if not res.exhausted else 2000
            assert res.evaluations == mu + lam * iters
            assert len(res.best_fitness_trace) == iters + 1
            assert len(res.best_count_trace) == iters + 1

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            run(EaConfig(10, 1, 1), OneMax(12))


class TestTraces:
    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.FAIRPLUS])
    def test_elitist_traces_non_decreasing(self, variant):
        mu = 3
        cfg = EaConfig(20, mu, mu, variant, seed=7)
        res = run(cfg, OneMax(20))
        trace = res.best_fitness_trace
        assert all(a <= b for a, b in zip(trace, trace[1:]))
        assert all(1 <= c <= mu for c in res.best_count_trace)

    def test_comma_can_regress_but_counts_stay_valid(self):
        cfg = EaConfig(20, 2, 6, Variant.COMMA, seed=3, max_iterations=300)
        res = run(cfg, OneMax(20))
        assert all(1 <= c <= 2 for c in res.best_count_trace)

    def test_one_plus_one_matches_chain_oracle(self):
        n, reps = 10, 10 ** 4
        cfg = EaConfig(n, 1, 1, seed=2024)
        results = run_batch(cfg, OneMax(n), reps)
        mean = sum(r.iterations_to_opt for r in results) / reps
        expected = oracles.one_plus_one_expected_iterations(n)
        assert abs(mean - expected) <= 0.05 * expected

    def test_plus_dominates_comma_small(self):
        # same tiny configuration, elitist versus non-elitist
        f = OneMax(10)
        rep = compare_dominance(EaConfig(10, 2, 2, Variant.PLUS, seed=31),
                                EaConfig(10, 2, 2, Variant.COMMA, seed=32),
                                f, 10 ** 4, workers=4)
        assert rep.stats_a.mean <= rep.stats_b.mean + 3 * rep.pooled_se


def _change_points(ftrace, ctrace):
    """The minimal flat (t, best, count) list that expands to the two traces."""
    out = []
    for t, (best, count) in enumerate(zip(ftrace, ctrace)):
        if not out or (best, count) != (out[-2], out[-1]):
            out += (t, best, count)
    return tuple(out)


class TestChangePoints:
    def test_one_plus_one_result_stays_small(self):
        # about 2.5 * 10^5 iterations, of which a few thousand change the best
        res = run(EaConfig(10 ** 4, 1, 1, seed=41), OneMax(10 ** 4))
        assert res.hit_optimum
        assert len(pickle.dumps(res)) <= 64 * 1024
        assert len(res.best_fitness_trace) == res.iterations_to_opt + 1

    @pytest.mark.parametrize("variant,mu,lam,genotype", [
        (Variant.PLUS, 3, 5, False), (Variant.COMMA, 2, 6, False),
        (Variant.FAIRPLUS, 4, 4, False), (Variant.PLUS, 2, 3, True),
    ])
    def test_change_points_are_minimal(self, variant, mu, lam, genotype):
        cfg = EaConfig(24, mu, lam, variant, seed=42, max_iterations=400)
        batch = oracles.genotype_batch if genotype else run_batch
        for res in batch(cfg, OneMax(24), 20):
            ts = res.changes[::3]
            assert ts[0] == 0 and ts[-1] <= res.iterations
            assert all(a < b for a, b in zip(ts, ts[1:]))
            pairs = list(zip(res.changes[1::3], res.changes[2::3]))
            assert all(a != b for a, b in zip(pairs, pairs[1:]))
            assert res.changes == _change_points(res.best_fitness_trace,
                                                 res.best_count_trace)

    @pytest.mark.parametrize("genotype", [False, True])
    def test_exhausted_run_expands_to_budget_plus_one(self, genotype):
        budget = 200
        cfg = EaConfig(64, 1, 1, seed=43, max_iterations=budget)
        batch = oracles.genotype_batch if genotype else run_batch
        results = batch(cfg, OneMax(64), 20)
        assert all(r.exhausted for r in results)
        for res in results:
            assert res.iterations == budget
            assert len(res.best_fitness_trace) == budget + 1
            assert len(res.best_count_trace) == budget + 1
        # some run's last change comes before the budget runs out
        assert any(res.changes[-3] < budget for res in results)

    def test_pool_returns_what_one_worker_does(self, monkeypatch):
        # the real fork pool: the first two replicates pass POOL_AFTER_S, so
        # the other 14 go to two forked workers
        cfg = EaConfig(40, 2, 3, seed=44, max_iterations=116)
        f = OneMax(40)
        serial = run_batch(cfg, f, 16, workers=1)
        starts = _forking_pool(monkeypatch, 2)
        _charge(monkeypatch, lambda i: 0.6 * engines.POOL_AFTER_S if i < 2 else 0.0)
        pooled = run_batch(cfg, f, 16, workers=2)
        assert starts == [2]
        assert any(r.exhausted for r in serial) and any(r.hit_optimum for r in serial)
        assert pooled == serial
        assert [r.best_fitness_trace for r in pooled] == [r.best_fitness_trace for r in serial]
        assert [r.best_count_trace for r in pooled] == [r.best_count_trace for r in serial]


class TestBatchExecution:
    def test_workers_do_not_change_results(self, monkeypatch):
        # the first replicate passes POOL_AFTER_S; two forked workers run
        # the other 7
        cfg = EaConfig(18, 2, 3, seed=77)
        f = OneMax(18)
        serial = run_batch(cfg, f, 8)
        starts = _forking_pool(monkeypatch, 2)
        _charge(monkeypatch, lambda i: 1.0 if i == 0 else 0.0)
        parallel = run_batch(cfg, f, 8, workers=2)
        assert starts == [2]
        assert serial == parallel

    def test_uneven_chunks_keep_replicate_order(self, monkeypatch):
        # the first two replicates pass POOL_AFTER_S; the 35 left go to 3
        # forked workers in chunks of 2, the last one short
        cfg = EaConfig(12, 3, 4, Variant.COMMA, seed=5)
        f = OneMax(12)
        serial = run_batch(cfg, f, 37)
        starts = _forking_pool(monkeypatch, 3)
        _charge(monkeypatch, lambda i: 1.0 if i == 1 else 0.0)
        assert run_batch(cfg, f, 37, workers=3) == serial
        assert starts == [3]

    def test_replicate_validation(self):
        with pytest.raises(ConfigError):
            run_batch(EaConfig(10, 1, 1), OneMax(10), 0)

    @pytest.mark.parametrize("workers,left,cpus,size", [
        (10 ** 5, 5, 4, 4),     # no more workers than CPUs
        (3, 2, 4, 2),           # ... nor than replicates left
        (2, 50, 4, 2),
        (2, 50, None, 1),       # unknown CPU count: one worker, so no pool
    ])
    def test_pool_size_is_clamped(self, monkeypatch, workers, left, cpus, size):
        # the first replicate passes POOL_AFTER_S; `left` replicates remain
        pool = _serial_pool(monkeypatch, cpus)
        _charge(monkeypatch, lambda i: 1.0 if i == 0 else 0.0)
        cfg = EaConfig(10, 2, 3, seed=3)
        f = OneMax(10)
        assert run_batch(cfg, f, left + 1, workers=workers) == run_batch(cfg, f, left + 1)
        assert pool["sizes"] == ([size] if size > 1 else [])

    def test_chunks_follow_the_clamped_pool(self, monkeypatch):
        # 10^5 workers asked for on 2 CPUs, 1,600 replicates left after the
        # switch: a pool of 2 and four chunks per worker, not 1,600
        # one-replicate chunks
        pool = _serial_pool(monkeypatch, 2)
        _charge(monkeypatch, lambda i: 1.0 if i == 399 else 0.0)
        cfg = EaConfig(10, 1, 1, seed=11)
        f = OneMax(10)
        assert run_batch(cfg, f, 2000, workers=10 ** 5) == run_batch(cfg, f, 2000)
        assert pool["sizes"] == [2] and pool["chunksizes"] == [200]
        assert len(pool["jobs"]) == 1600


class TestPoolRule:
    """When run_batch leaves its own process, timed by a fake clock that
    charges each replicate a set cost."""

    CFG = EaConfig(16, 2, 3, seed=21)
    F = OneMax(16)

    def test_short_batch_builds_no_pool(self, monkeypatch):
        pool = _serial_pool(monkeypatch, 4)
        _charge(monkeypatch, lambda i: engines.POOL_AFTER_S / 24)
        assert run_batch(self.CFG, self.F, 12, workers=4) == run_batch(self.CFG, self.F, 12)
        assert pool["sizes"] == []

    def test_short_rest_builds_no_pool(self, monkeypatch):
        # the time spent passes POOL_AFTER_S after 10 replicates, but the
        # projected cost of the 2 left is under it
        pool = _serial_pool(monkeypatch, 4)
        _charge(monkeypatch, lambda i: engines.POOL_AFTER_S / 9.5)
        assert run_batch(self.CFG, self.F, 12, workers=4) == run_batch(self.CFG, self.F, 12)
        assert pool["sizes"] == []

    def test_long_batch_builds_one_pool_for_the_rest(self, monkeypatch):
        # 0.3 POOL_AFTER_S per replicate: the fourth one passes it, and 6
        # replicates are left for a pool of min(8, 6, 16)
        pool = _serial_pool(monkeypatch, 16)
        _charge(monkeypatch, lambda i: 0.3 * engines.POOL_AFTER_S)
        assert run_batch(self.CFG, self.F, 10, workers=8) == run_batch(self.CFG, self.F, 10)
        assert pool["sizes"] == [6]
        assert [seed for _, _, seed in pool["jobs"]] == [mix64(21, r) for r in range(4, 10)]

    @pytest.mark.parametrize("switch", range(1, 12))
    def test_any_switch_point_keeps_the_results(self, monkeypatch, switch):
        serial = run_batch(self.CFG, self.F, 12, workers=1)
        pool = _serial_pool(monkeypatch, 3)
        _charge(monkeypatch, lambda i: 1.0 if i == switch - 1 else 0.0)
        assert run_batch(self.CFG, self.F, 12, workers=3) == serial
        left = 12 - switch
        assert pool["sizes"] == ([min(3, left)] if left > 1 else [])
        assert len(pool["jobs"]) == (left if left > 1 else 0)


def _charge(monkeypatch, cost):
    """Replace the engine's clock with one that moves only when a replicate
    runs: the i-th run in this process (from 0) advances it cost(i) seconds."""
    now = [0.0]
    calls = [0]
    real_run = engines.run

    def charged_run(config, f, rng=None):
        now[0] += cost(calls[0])
        calls[0] += 1
        return real_run(config, f, rng)

    monkeypatch.setattr(engines, "perf_counter", lambda: now[0])
    monkeypatch.setattr(engines, "run", charged_run)


def _forking_pool(monkeypatch, cpus):
    """Count the real fork pools built on a host taken to have `cpus` CPUs;
    the list returned gets each pool's size."""
    starts = []

    class CountedPool(engines.ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(engines, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(engines.os, "cpu_count", lambda: cpus)
    return starts


def _serial_pool(monkeypatch, cpus):
    """Stand in for the process pool on a host with `cpus` CPUs.

    A fork-started pool forks all its workers at once, so the stand-in maps
    in this process. It records, in the dict it returns, the pool sizes
    asked for, the chunksize of each map and the jobs mapped.
    """
    seen = {"sizes": [], "chunksizes": [], "jobs": []}

    class SerialPool:
        def __init__(self, max_workers):
            seen["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            seen["chunksizes"].append(chunksize)
            seen["jobs"] += items
            return map(fn, items)

    monkeypatch.setattr(engines, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(engines.os, "cpu_count", lambda: cpus)
    return seen


class _Flat:
    """Constant fitness: every candidate ties with every other."""

    def __init__(self, n):
        self.n = n
        self.opt_threshold = n + 1

    def value(self, mask):
        return 0


class TestEvolutionState:
    _variants = [(Variant.PLUS, 3, 5), (Variant.PLUS, 4, 2),
                 (Variant.COMMA, 3, 7), (Variant.FAIRPLUS, 4, 4)]

    @pytest.mark.parametrize("variant,mu,lam", _variants)
    def test_population_size_and_sources(self, variant, mu, lam):
        cfg = EaConfig(16, mu, lam, variant, seed=13)
        es = EvolutionState(cfg, OneMax(16))
        for _ in range(10):
            prev_masks = list(es.masks)
            es.step()
            assert len(es.masks) == mu
            assert len(es.fits) == mu
            assert len(es.last_sources) == mu
            f = es.fitness
            for j, s in enumerate(es.last_sources):
                assert 0 <= s < mu + lam
                origin = prev_masks[s] if s < mu else es.last_off_masks[s - mu]
                assert es.masks[j] == origin
                assert es.fits[j] == f.value(es.masks[j])
                if variant is Variant.COMMA:
                    assert s >= mu  # parents never survive comma selection

    def test_parentage_indices(self):
        cfg = EaConfig(12, 3, 6, seed=5)
        es = EvolutionState(cfg, OneMax(12))
        es.step()
        assert len(es.last_parent_idx) == 6
        assert all(0 <= p < 3 for p in es.last_parent_idx)

    def test_fairplus_parent_mapping(self):
        cfg = EaConfig(12, 4, 4, Variant.FAIRPLUS, seed=5)
        es = EvolutionState(cfg, OneMax(12))
        es.step()
        assert es.last_parent_idx == [0, 1, 2, 3]

    def test_initial_masks_validation(self):
        cfg = EaConfig(8, 2, 2, seed=0)
        with pytest.raises(ConfigError):
            EvolutionState(cfg, OneMax(8), initial_masks=[0])
        with pytest.raises(ConfigError):
            EvolutionState(cfg, OneMax(8), initial_masks=[0, 1 << 8])
        es = EvolutionState(cfg, OneMax(8), initial_masks=[0, 255])
        assert es.best_fitness == 8
        assert es.fits.count(es.best_fitness) == 1

    @pytest.mark.parametrize("variant,mu,lam", [
        (Variant.PLUS, 3, 5), (Variant.PLUS, 4, 4), (Variant.COMMA, 3, 7)])
    def test_ties_keep_offspring(self, variant, mu, lam):
        # marker takeover relies on this rule: with lambda >= mu and every
        # candidate tied, all survivors are offspring
        es = EvolutionState(EaConfig(8, mu, lam, variant, seed=3), _Flat(8))
        for _ in range(5):
            es.step()
            assert all(s >= mu for s in es.last_sources)

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_plus_best_never_drops(self, mu, lam, seed):
        cfg = EaConfig(10, mu, lam, seed=seed)
        es = EvolutionState(cfg, OneMax(10))
        best = es.best_fitness
        for _ in range(5):
            es.step()
            assert es.best_fitness >= best
            best = es.best_fitness


def _agree(xs, ys):
    """Two-sample KS p >= 1e-3, or means within 4 standard errors."""
    if sps.ks_2samp(xs, ys).pvalue >= 1e-3:
        return True
    se = math.sqrt(sps.tvar(xs) / len(xs) + sps.tvar(ys) / len(ys))
    return abs(sum(xs) / len(xs) - sum(ys) / len(ys)) <= 4 * se


def _means_agree(stats, reference):
    """A measurement's mean within 4 standard errors of a reference sample's."""
    se = math.sqrt(stats.stderr ** 2 + sps.tvar(reference) / len(reference))
    return abs(stats.mean - sum(reference) / len(reference)) <= 4 * se


class _CountingRandom(random.Random):
    """random.Random that counts its random() calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def _times(results):
    return [r.iterations_to_opt for r in results if not r.exhausted]


def _exact_offspring_pmf(n, p, g):
    """Pr(offspring fitness = v) for a parent at fitness g, by math.comb."""
    p = Fraction(p)
    pmf = [Fraction(0)] * (n + 1)
    for a in range(g + 1):
        for b in range(n - g + 1):
            pmf[g - a + b] += (math.comb(g, a) * p ** a * (1 - p) ** (g - a)
                               * math.comb(n - g, b) * p ** b * (1 - p) ** (n - g - b))
    return pmf


def _table_pmf(lo, cum, n):
    pmf = [0.0] * (n + 1)
    prev = 0.0
    for k, c in enumerate(cum):
        pmf[lo + k] = c - prev
        prev = c
    return pmf


class TestLumpedEngine:
    """The fitness-level engine behind run() against the genotype engine,
    stepped by oracles.genotype_batch."""

    REPLICATES = 400
    SHAPES = [
        # (n, mu, lam, variant)
        (12, 1, 1, Variant.PLUS),
        (12, 3, 5, Variant.PLUS),
        (14, 2, 8, Variant.PLUS),
        (10, 1, 4, Variant.COMMA),
        (12, 2, 6, Variant.COMMA),
        (10, 3, 9, Variant.COMMA),
        (10, 2, 2, Variant.FAIRPLUS),
        (12, 4, 4, Variant.FAIRPLUS),
        (16, 3, 3, Variant.FAIRPLUS),
        # mixed plus populations, comma with lambda >> mu, mixed fairplus
        (14, 3, 48, Variant.PLUS),
        (12, 2, 64, Variant.COMMA),
        (16, 6, 6, Variant.FAIRPLUS),
    ]

    @pytest.mark.parametrize("n,mu,lam,variant", SHAPES)
    def test_runtime_law_matches_genotype_engine(self, n, mu, lam, variant):
        cfg = EaConfig(n, mu, lam, variant, seed=11)
        lumped = run_batch(cfg, OneMax(n), self.REPLICATES)
        masks = oracles.genotype_batch(replace(cfg, seed=12), OneMax(n), self.REPLICATES)
        assert _agree(_times(lumped), _times(masks))

    @pytest.mark.parametrize("f", [
        UniqueOptGeneric(BitString.from_string("011010011101")),
        MultiOptOneMax(14, 2),
    ], ids=["uniqueopt", "multiopt"])
    def test_other_benchmarks_match_genotype_engine(self, f):
        cfg = EaConfig(f.n, 2, 4, seed=13)
        lumped = run_batch(cfg, f, self.REPLICATES)
        masks = oracles.genotype_batch(replace(cfg, seed=14), f, self.REPLICATES)
        assert _agree(_times(lumped), _times(masks))

    @pytest.mark.parametrize("n,mu,lam,variant,i", [
        (12, 2, 3, Variant.PLUS, 8),
        (12, 2, 4, Variant.COMMA, 6),
        (12, 3, 3, Variant.FAIRPLUS, 9),
    ])
    def test_level_time_matches_genotype_engine(self, n, mu, lam, variant, i):
        cfg = EaConfig(n, mu, lam, variant, seed=15)
        lumped = measure_level_time(cfg, OneMax(n), i, self.REPLICATES)
        reference = []
        initial = [(1 << i) - 1] + [(1 << (i - 1)) - 1] * (mu - 1)
        for r in range(self.REPLICATES):
            es = EvolutionState(cfg, OneMax(n), rng=random.Random(mix64(16, r)),
                                initial_masks=initial)
            while es.best_fitness <= i:
                es.step()
            reference.append(es.iteration)
        assert lumped.exhausted == 0
        assert _means_agree(lumped, reference)

    @pytest.mark.parametrize("n,mu,lam,i,j1,j2", [
        (12, 4, 4, 6, 1, 4),
        (12, 3, 6, 8, 1, 2),
        (14, 5, 3, 7, 2, 5),
    ])
    def test_takeover_matches_genotype_engine(self, n, mu, lam, i, j1, j2):
        spec = TakeoverSpec(n, mu, lam, i, j1, j2, replicates=self.REPLICATES, seed=17)
        lumped = measure_takeover(spec)
        cfg = EaConfig(n, mu, lam)
        initial = [(1 << i) - 1] * j1 + [(1 << (i - 1)) - 1] * (mu - j1)
        reference = []
        for r in range(self.REPLICATES):
            es = EvolutionState(cfg, OneMax(n), rng=random.Random(mix64(18, r)),
                                initial_masks=initial)
            while sum(1 for fv in es.fits if fv >= i) < j2:
                es.step()
            reference.append(es.iteration)
        assert lumped.exhausted == 0
        assert _means_agree(lumped, reference)

    @pytest.mark.parametrize("n", [1, 5, 12])
    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0, "n"])
    def test_level_tables_are_exact(self, n, c):
        p = 1.0 if c == "n" else min(1.0, c / n)
        for g in range(n + 1):
            exact = _exact_offspring_pmf(n, p, g)
            lo, sur = _level_table(n, p, g)
            assert sur[-1] == 0.0
            assert all(a >= b for a, b in zip(sur, sur[1:]))
            got = _table_pmf(lo, [1.0 - s for s in sur], n)
            assert all(abs(a - float(b)) <= 1e-12 for a, b in zip(got, exact))
            # survival: Pr(offspring > lo + k), and Pr(gain) read at g
            assert all(abs(s - float(sum(exact[lo + k + 1:]))) <= 1e-12
                       for k, s in enumerate(sur))
            u = 1.0 if g < lo else sur[g - lo] if g - lo < len(sur) else 0.0
            assert abs(u - float(sum(exact[g + 1:]))) <= 1e-12

    @pytest.mark.parametrize("n,mu,lam,m,seed", [(10, 1, 8, 3, 25), (12, 2, 3, 9, 26)])
    def test_idle_skip_step_is_exact(self, n, mu, lam, m, seed):
        # from mu members at fitness m: the wait is geometric with success
        # 1 - F(m)^lam and the new best has the law of the best of lam
        # offspring given that it exceeds m (F: one offspring's cdf)
        reps = 20000
        cfg = EaConfig(n, mu, lam)
        rng = random.Random(seed)
        waits, bests = [], []
        for _ in range(reps):
            changes = []
            waits.append(evolve_levels(cfg, rng, [m] * mu, 10 ** 9, 1, m + 1, changes))
            bests.append(changes[-2])
        cdf, acc = [], 0.0
        for v in range(n + 1):
            acc += oracles.onemax_transition(n, m, v, 1.0 / n)
            cdf.append(min(acc, 1.0) ** lam)
        leave = 1.0 - cdf[m]
        assert abs(sum(waits) / reps - 1.0 / leave) <= 4 * math.sqrt(sps.tvar(waits) / reps)
        observed = [bests.count(v) for v in range(m + 1, n + 1)]
        expected = [reps * (cdf[v] - cdf[v - 1]) / leave for v in range(m + 1, n + 1)]
        while expected[-1] < 5:   # pool the sparse top levels
            top_e, top_o = expected.pop(), observed.pop()
            expected[-1] += top_e
            observed[-1] += top_o
        assert sps.chisquare(observed, expected).pvalue >= 1e-3

    def test_one_plus_lambda_matches_chain(self):
        n, lam, reps = 20, 4, 4000
        results = run_batch(EaConfig(n, 1, lam, seed=19), OneMax(n), reps)
        ts = _times(results)
        assert len(ts) == reps
        mean = sum(ts) / reps
        se = math.sqrt(sps.tvar(ts) / reps)
        assert abs(mean - oracles.one_plus_lambda_expected_iterations(n, lam)) <= 4 * se

    def test_gain_keeps_relative_precision_at_large_n(self):
        # one zero left: the only gain flips it and nothing else
        n = 10 ** 5
        p = 1.0 / n
        lo, sur = _level_table(n, p, n - 1)
        exact = p * math.exp((n - 1) * math.log1p(-p))
        assert abs(sur[n - 1 - lo] - exact) <= 1e-12 * exact

    def test_one_plus_large_lambda_matches_chain(self):
        n, lam, reps = 20, 4096, 4000
        results = run_batch(EaConfig(n, 1, lam, seed=27), OneMax(n), reps)
        ts = _times(results)
        assert len(ts) == reps
        se = math.sqrt(sps.tvar(ts) / reps)
        expected = oracles.one_plus_lambda_expected_iterations(n, lam)
        assert abs(sum(ts) / reps - expected) <= 4 * se

    @pytest.mark.parametrize("variant", [Variant.PLUS, Variant.COMMA, Variant.FAIRPLUS])
    def test_matches_per_offspring_loop(self, variant):
        # every one of the lambda offspring drawn, against the order statistics;
        # fairplus draws one offspring per member, over one group per level
        n, reps = 64, 100
        mu, lam = (32, 32) if variant is Variant.FAIRPLUS else (8, 4096)
        lumped = _times(run_batch(EaConfig(n, mu, lam, variant, seed=28), OneMax(n), reps))
        reference = []
        for r in range(reps):
            rng = random.Random(mix64(29, r))
            fits = [oracles.popcount_slow(rng.getrandbits(n)) for _ in range(mu)]
            reference.append(oracles.per_offspring_levels(n, mu, lam, variant, rng, fits))
        assert len(lumped) == reps
        assert _agree(lumped, reference)

    @pytest.mark.parametrize("mu,lam", [(1, 10 ** 6), (8, 10 ** 5)])
    def test_draws_do_not_grow_with_lambda(self, mu, lam):
        # a changing iteration draws at most mu + 1 uniforms, whatever lambda is
        n = 256
        rng = _CountingRandom(30)
        fits = [rng.getrandbits(n).bit_count() for _ in range(mu)]
        t = evolve_levels(EaConfig(n, mu, lam), rng, fits, 10 ** 9, 1, n)
        assert t >= 1
        assert rng.calls <= (2 * mu + 4) * t

    def test_level_tables_outlive_a_replicate(self, monkeypatch):
        # a (1+1) run at n = 10^4 visits more levels than the old 4096-entry
        # cache held; the levels stay cached, so repeating it builds nothing
        builds = []
        build = engines._level_table
        monkeypatch.setattr(engines, "_level_table",
                            lambda *args: builds.append(args) or build(*args))
        engines._tables.cache_clear()
        cfg = EaConfig(10 ** 4, 1, 1, seed=31)
        first = run(cfg, OneMax(10 ** 4))
        assert len(builds) > 4096
        builds.clear()
        assert run(cfg, OneMax(10 ** 4)) == first
        assert builds == []

    def test_cached_comma_mixtures_change_nothing(self):
        # comma populations keep their mixture survival across runs
        cfg = EaConfig(12, 2, 6, Variant.COMMA, seed=33)
        run_batch(cfg, OneMax(12), 50)
        warm = run_batch(cfg, OneMax(12), 50)
        engines._tables.cache_clear()
        engines._comma_survival.cache_clear()
        assert run_batch(cfg, OneMax(12), 50) == warm

    def test_comma_memo_keeps_the_latest_populations(self):
        # (256, 32, 256) meets more than 4096 distinct populations in 80
        # runs; the memo keeps the 4096 used last, and a rerun draws the same
        cfg = EaConfig(256, 32, 256, Variant.COMMA, seed=34)
        engines._comma_survival.cache_clear()
        first = run_batch(cfg, OneMax(256), 80)
        info = engines._comma_survival.cache_info()
        assert info.misses > 4096 and info.currsize == 4096
        assert run_batch(cfg, OneMax(256), 80) == first

    @pytest.mark.parametrize("c", [11.0, 12.0])
    @pytest.mark.parametrize("variant,mu,lam", [
        (Variant.PLUS, 1, 4), (Variant.PLUS, 4, 4),
        (Variant.COMMA, 4, 40), (Variant.FAIRPLUS, 4, 4),
    ])
    def test_runs_when_no_level_keeps_its_value(self, variant, mu, lam, c):
        # at c close to n a level's support can end below the worst member
        cfg = EaConfig(12, mu, lam, variant, c=c, max_iterations=50, seed=32)
        for res in run_batch(cfg, OneMax(12), 50):
            t = 50 if res.exhausted else res.iterations_to_opt
            assert len(res.best_fitness_trace) == t + 1

    def test_large_n_finishes(self):
        n = 10 ** 5
        res = run(EaConfig(n, 1, 1, seed=21), MultiOptOneMax(n, n // 2 - 500))
        assert res.hit_optimum
        assert res.best_fitness_trace[-1] >= n // 2 + 500
        assert len(res.best_fitness_trace) == res.iterations_to_opt + 1
        stats = measure_level_time(EaConfig(n, 1, 1, seed=22), OneMax(n), n - 1, 5)
        assert stats.exhausted == 0

    def test_non_benchmark_fitness_is_rejected(self, monkeypatch):
        # OneMax's values behind a type the fitness-level chain does not know
        f = SimpleNamespace(n=10, opt_threshold=10, value=OneMax(10).value)
        cfg = EaConfig(10, 2, 3, seed=23, max_iterations=500)
        starts = _forking_pool(monkeypatch, 2)
        with pytest.raises(ConfigError, match="fitness levels"):
            run(cfg, f)
        with pytest.raises(ConfigError, match="fitness levels"):
            run_batch(cfg, f, 16, workers=2)
        assert starts == []
        with pytest.raises(ConfigError, match="fitness levels"):
            measure_level_time(cfg, f, 5, 4)
