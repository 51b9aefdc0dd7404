"""The benchmark's three workloads: the ealab calls each one makes, how many
fitness evaluations each call stands for, and the checks on its outputs.

A workload turns the benchmark seed into configurations and seeds; ealab
sees only those. Every call goes through a module attribute looked up at
call time (``engines.run_batch``, ``takeover.run_ea0``, ...), so the traced
run's wrappers see it. Checks compare against `oracle` and never against a
stored copy of earlier output; statistical tolerances are in standard
errors, so an engine that keeps the runtime law but draws other random
numbers still passes.

Evaluation counting: a call that returns RunResults counts mu + lambda * t
per run; a call that returns only statistics counts lambda per iteration,
each censored run at its explicit cap.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ealab import cli, engines, harness, takeover, trees
from ealab.engines import EaConfig, Variant
from ealab.genotype import BitString, OneMax
from ealab.takeover import Ea0Spec, TakeoverSpec

import oracle
from tracer import fitness

#: the fixed CSV columns, written out here rather than taken from ealab
CSV_HEADER = ["n", "mu", "lambda", "variant", "replicates", "mean_T", "stderr_T",
              "median_T", "q10", "q90", "exhausted", "bound_total", "ratio"]


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    evals: Callable[[object], int]


class Workload:
    name = ""
    #: (n, p) binomial tables the calls draw from; built during set-up
    tables = ()

    def __init__(self, seed: int, outdir):
        self._rng = random.Random(f"{self.name}:{seed}")
        self.outdir = outdir

    def _seed(self) -> int:
        return self._rng.getrandbits(63)

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, outs: dict) -> list:
        """Failure messages for the outputs present in `outs` (op name ->
        output); an op that raised has no entry and its checks are skipped."""
        raise NotImplementedError


def _near(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _run_evals(results, mu: int, lam: int, cap: int) -> int:
    return sum(mu + lam * (cap if r.iterations_to_opt is None else r.iterations_to_opt)
               for r in results)


def _stats_evals(stats, lam: int, cap: int) -> int:
    done = round(stats.mean * stats.count) if stats.count else 0
    return lam * (done + stats.exhausted * cap)


# --------------------------------------------------------------- sweep-grid

SWEEP_NS = (64, 128, 256)
#: (mu, lambda, replicates): a5's pairs; (1,1) gets more replicates so that
#: its mean is close enough to normal for the 4 SE check to be reliable
SWEEP_CALLS = ((1, 1, 40), (1, 16, 10), (8, 8, 10), (8, 64, 10), (2, 128, 10))


def _sweep_and_roundtrip(argv, path):
    code = cli.main(argv)
    data = path.read_bytes()
    path.unlink()
    table = harness.parse_table(data)
    return code, data, harness.emit(table)


def _sweep_rows(data: bytes):
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    return header, [dict(zip(header, line)) for line in reader if line]


def _sweep_evals(mu, lam, reps, out) -> int:
    total = 0
    for row in _sweep_rows(out[1])[1]:
        n, ex = int(row["n"]), int(row["exhausted"])
        done = round(float(row["mean_T"]) * (reps - ex))
        total += lam * (done + ex * oracle.default_budget(n, mu, lam))
    return total


class SweepGrid(Workload):
    """The a5 grid through `ealab sweep`, one CLI call per (mu, lambda)."""

    name = "sweep-grid"
    tables = tuple((n, 1.0 / n) for n in SWEEP_NS)

    def ops(self):
        ops = []
        for mu, lam, reps in SWEEP_CALLS:
            path = self.outdir / f"sweep-{mu}-{lam}.csv"
            argv = ["sweep", "--n", ",".join(map(str, SWEEP_NS)),
                    "--mu", str(mu), "--lambda", str(lam),
                    "--replicates", str(reps), "--seed", str(self._seed()),
                    "--budget-mult", "10", "--workers", "1", "--out", str(path)]
            ops.append(Op(f"sweep-{mu}-{lam}", partial(_sweep_and_roundtrip, argv, path),
                          partial(_sweep_evals, mu, lam, reps)))
        return ops

    def check(self, outs):
        fails = []
        ratios = []
        for mu, lam, reps in SWEEP_CALLS:
            name = f"sweep-{mu}-{lam}"
            if name not in outs:
                continue
            code, data, re_emitted = outs[name]
            if code != 0:
                fails.append(f"{name}: exit code {code}")
            header, rows = _sweep_rows(data)
            if header != CSV_HEADER:
                fails.append(f"{name}: CSV header {header}")
                continue
            if re_emitted != data:
                fails.append(f"{name}: emit(parse_table(csv)) differs from the CSV")
            if [int(r["n"]) for r in rows] != list(SWEEP_NS):
                fails.append(f"{name}: rows for n = {[r['n'] for r in rows]}")
                continue
            means = []
            for r in rows:
                n = int(r["n"])
                nums = [float(r[c]) for c in CSV_HEADER if c != "variant"]
                if not all(math.isfinite(x) for x in nums):
                    fails.append(f"{name} n={n}: non-finite field, an error row")
                    continue
                if (int(r["mu"]), int(r["lambda"]), r["variant"], int(r["replicates"])) \
                        != (mu, lam, "plus", reps):
                    fails.append(f"{name} n={n}: row shape {r}")
                if int(r["exhausted"]) != 0:
                    fails.append(f"{name} n={n}: {r['exhausted']} runs exhausted")
                mean, se = float(r["mean_T"]), float(r["stderr_T"])
                bound = oracle.master_bound(n, mu, lam)
                if not _near(float(r["bound_total"]), bound):
                    fails.append(f"{name} n={n}: bound_total {r['bound_total']} != {bound}")
                if not _near(float(r["ratio"]), mean / bound):
                    fails.append(f"{name} n={n}: ratio {r['ratio']} != mean/bound")
                if (mu, lam) == (1, 1):
                    expect = oracle.one_plus_one_mean(n)
                    if abs(mean - expect) > 4 * se:
                        fails.append(f"{name} n={n}: mean {mean} not within 4 SE "
                                     f"({se}) of the chain value {expect}")
                means.append(mean)
                ratios.append(mean / bound)
            if any(a >= b for a, b in zip(means, means[1:])):
                fails.append(f"{name}: mean T does not rise with n: {means}")
        if ratios and max(ratios) / min(ratios) > 20.0:
            fails.append(f"ratio spread {max(ratios) / min(ratios)} > 20")
        return fails


# --------------------------------------------------------------- batch-pool

ONE_PLUS_ONE = ((10, 1000), (25, 1000), (50, 1000))
SERIAL_SLICE = 100
FAIR_N, FAIR_REPLICATES = 64, 20
DOMINANCE = (30, 3, 30)
DOMINANCE_REPLICATES = 250
POOL_WORKERS = 2


def _batch(config, n, replicates, workers):
    return engines.run_batch(config, fitness(OneMax(n)), replicates, workers=workers)


def _dominance(config_a, config_b, n, replicates):
    return harness.compare_dominance(config_a, config_b, fitness(OneMax(n)),
                                     replicates, workers=POOL_WORKERS)


def _dominance_evals(lam, cap, report) -> int:
    return _stats_evals(report.stats_a, lam, cap) + _stats_evals(report.stats_b, lam, cap)


def _config(n, mu, lam, seed, variant=Variant.PLUS):
    return EaConfig(n, mu, lam, variant, seed=seed,
                    max_iterations=oracle.default_budget(n, mu, lam))


class BatchPool(Workload):
    """Many short runs through a two-worker pool, full traces returned."""

    name = "batch-pool"
    tables = tuple((n, 1.0 / n) for n in (10, 25, 50, FAIR_N, DOMINANCE[0]))

    def ops(self):
        ops = []
        self.configs = {}
        for n, reps in ONE_PLUS_ONE:
            cfg = self.configs[f"oneone-{n}"] = _config(n, 1, 1, self._seed())
            ops.append(Op(f"oneone-{n}", partial(_batch, cfg, n, reps, POOL_WORKERS),
                          partial(_run_evals, mu=1, lam=1, cap=cfg.max_iterations)))
        cfg = self.configs["oneone-50"]
        ops.append(Op("oneone-50-serial", partial(_batch, cfg, 50, SERIAL_SLICE, 1),
                      partial(_run_evals, mu=1, lam=1, cap=cfg.max_iterations)))
        cfg = self.configs["fairplus"] = _config(FAIR_N, FAIR_N, FAIR_N, self._seed(),
                                                 Variant.FAIRPLUS)
        ops.append(Op("fairplus", partial(_batch, cfg, FAIR_N, FAIR_REPLICATES, POOL_WORKERS),
                      partial(_run_evals, mu=FAIR_N, lam=FAIR_N, cap=cfg.max_iterations)))
        n, mu, lam = DOMINANCE
        cfg_a = _config(n, mu, lam, self._seed(), Variant.PLUS)
        cfg_b = _config(n, mu, lam, self._seed(), Variant.COMMA)
        ops.append(Op("dominance", partial(_dominance, cfg_a, cfg_b, n, DOMINANCE_REPLICATES),
                      partial(_dominance_evals, lam, cfg_a.max_iterations)))
        return ops

    def check(self, outs):
        fails = []
        for name, cfg in self.configs.items():
            if name not in outs:
                continue
            for r in outs[name]:
                t = cfg.max_iterations if r.iterations_to_opt is None else r.iterations_to_opt
                if r.evaluations != cfg.mu + cfg.lam * t:
                    fails.append(f"{name}: evaluations {r.evaluations} != mu + lambda*t")
                    break
                if r.hit_optimum == r.exhausted:
                    fails.append(f"{name}: hit_optimum disagrees with exhausted")
                    break
        for n, _ in ONE_PLUS_ONE:
            name = f"oneone-{n}"
            if name not in outs:
                continue
            ts = [r.iterations_to_opt for r in outs[name]]
            if None in ts:
                fails.append(f"{name}: a run exhausted its budget")
                continue
            mean, se = oracle.mean_se(ts)
            expect = oracle.one_plus_one_mean(n)
            if abs(mean - expect) > 4 * se:
                fails.append(f"{name}: mean {mean} not within 4 SE ({se}) of {expect}")
        if "oneone-50" in outs and "oneone-50-serial" in outs:
            if outs["oneone-50-serial"] != outs["oneone-50"][:SERIAL_SLICE]:
                fails.append("workers=1 results differ from the workers=2 results")
        if "fairplus" in outs:
            ts = [r.iterations_to_opt for r in outs["fairplus"]]
            if None in ts:
                fails.append("fairplus: a run exhausted its budget")
            else:
                per_bound = (math.fsum(ts) / len(ts)) / (math.log(FAIR_N) + FAIR_N)
                if not 0.25 <= per_bound <= 4.0:
                    fails.append(f"fairplus: mean/(ln n + n) = {per_bound} outside [1/4, 4]")
        if "dominance" in outs:
            rep = outs["dominance"]
            a, b = rep.stats_a, rep.stats_b
            if (rep.variant_a, rep.variant_b) != ("plus", "comma"):
                fails.append(f"dominance: variants {rep.variant_a}, {rep.variant_b}")
            if a.exhausted or b.exhausted:
                fails.append("dominance: exhausted runs")
            if a.count + b.count != 2 * DOMINANCE_REPLICATES - a.exhausted - b.exhausted:
                fails.append("dominance: replicate counts do not add up")
            pooled = math.sqrt(a.stderr ** 2 + b.stderr ** 2)
            if not a.mean <= b.mean + 3 * pooled:
                fails.append(f"dominance: plus mean {a.mean} > comma mean {b.mean} "
                             f"+ 3 pooled SE ({pooled})")
        return fails


# -------------------------------------------------------------- lineage-lab

LEVEL_N = 50
TAKEOVERS = {
    # name: (n, mu, lam, i, j1, j2, replicates, cap)
    "takeover-8-64": (LEVEL_N, 8, 64, 25, 1, 8, 500, 1000),
    "takeover-4-400": (LEVEL_N, 4, 400, 25, 1, 4, 150, 1000),
    # i = 0 marker construction; most marked lineages die out and run to the cap
    "takeover-marker": (LEVEL_N, 8, 64, 0, 1, 8, 10, 200),
    "takeover-two": (10, 2, 2, 5, 1, 2, 2500, 1000),
}
EA0 = {
    # name: (n, mu, lam, j1, j2, replicates, cap)
    "ea0-16-256": (LEVEL_N, 16, 256, 1, 16, 500, 2000),
    "ea0-4-4": (LEVEL_N, 4, 4, 1, 4, 5000, 2000),
}
LEVEL_REPLICATES = 500
P_OPT_N, P_OPT_DISTANCE, P_OPT_SAMPLES = 16, 4, 50000
FAMILY = (16, 4, 8)
FAMILY_TREES = 100


def _takeover(spec):
    return takeover.measure_takeover(spec)


def _ea0(spec):
    return takeover.run_ea0(spec)


def _level_time(config, replicates):
    return takeover.measure_level_time(config, fitness(OneMax(config.n)),
                                       config.n - 1, replicates)


def _p_opt(root, target, samples, seed):
    return trees.verify_p_opt(root, target, 1, samples, random.Random(seed))


def _family_trees(configs):
    return [trees.simulate_family_tree(cfg, fitness(OneMax(cfg.n))) for cfg in configs]


def _family_evals(results) -> int:
    n, mu, lam = FAMILY
    return sum(mu + lam * r.iterations for r in results)


class LineageLab(Workload):
    """Takeover, copy-only growth, level leaving and lineage trees."""

    name = "lineage-lab"
    tables = ((LEVEL_N, 1.0 / LEVEL_N), (10, 1.0 / 10), (P_OPT_N, 1.0 / P_OPT_N))

    def ops(self):
        ops = []
        for name, (n, mu, lam, i, j1, j2, reps, cap) in TAKEOVERS.items():
            spec = TakeoverSpec(n, mu, lam, i, j1, j2, replicates=reps,
                                seed=self._seed(), max_iterations=cap)
            ops.append(Op(name, partial(_takeover, spec),
                          partial(_stats_evals, lam=lam, cap=cap)))
        for name, (n, mu, lam, j1, j2, reps, cap) in EA0.items():
            spec = Ea0Spec(n, mu, lam, j1, j2, replicates=reps, seed=self._seed(),
                           max_iterations=cap)
            ops.append(Op(name, partial(_ea0, spec),
                          partial(_stats_evals, lam=lam, cap=cap)))
        cfg = _config(LEVEL_N, 1, 1, self._seed())
        ops.append(Op("level-time", partial(_level_time, cfg, LEVEL_REPLICATES),
                      partial(_stats_evals, lam=1, cap=cfg.max_iterations)))
        root = BitString.random(P_OPT_N, self._rng)
        flip = sum(1 << pos for pos in self._rng.sample(range(P_OPT_N), P_OPT_DISTANCE))
        target = BitString(P_OPT_N, root.mask ^ flip)
        ops.append(Op("p-opt", partial(_p_opt, root, target, P_OPT_SAMPLES, self._seed()),
                      lambda check: check.samples))
        n, mu, lam = FAMILY
        configs = [_config(n, mu, lam, self._seed()) for _ in range(FAMILY_TREES)]
        ops.append(Op("family-trees", partial(_family_trees, configs), _family_evals))
        return ops

    def check(self, outs):
        fails = []
        for name, (n, mu, lam, i, j1, j2, reps, cap) in TAKEOVERS.items():
            if name not in outs:
                continue
            s = outs[name]
            if s.count + s.exhausted != reps:
                fails.append(f"{name}: {s.count} + {s.exhausted} runs != {reps}")
            if s.count and not 1 <= s.mean <= cap:
                fails.append(f"{name}: mean {s.mean} outside [1, {cap}]")
            if i == 0:
                continue
            if s.exhausted:
                fails.append(f"{name}: {s.exhausted} runs censored")
            if name == "takeover-two":
                expect = oracle.two_member_takeover_mean(n, i)
                if abs(s.mean - expect) > 4 * s.stderr:
                    fails.append(f"{name}: mean {s.mean} not within 4 SE "
                                 f"({s.stderr}) of {expect}")
            elif not s.mean <= oracle.takeover_bound_general(mu, lam, j1, j2) + 3 * s.stderr:
                fails.append(f"{name}: mean {s.mean} above the takeover bound + 3 SE")
        if "ea0-16-256" in outs:
            s = outs["ea0-16-256"]
            floor = oracle.ea0_growth_lb(16, 256, 1, 16)
            if s.exhausted or not s.mean >= floor - 3 * s.stderr:
                fails.append(f"ea0-16-256: mean {s.mean} (SE {s.stderr}, "
                             f"{s.exhausted} censored) below the growth floor {floor}")
        if "ea0-4-4" in outs:
            s = outs["ea0-4-4"]
            expect = oracle.ea0_mean(LEVEL_N, 4, 4, 1, 4)
            if s.exhausted or abs(s.mean - expect) > 4 * s.stderr:
                fails.append(f"ea0-4-4: mean {s.mean} not within 4 SE ({s.stderr}) "
                             f"of the chain value {expect}")
        if "level-time" in outs:
            s = outs["level-time"]
            expect = oracle.level_leave_mean(LEVEL_N)
            if s.exhausted or abs(s.mean - expect) > 4 * s.stderr:
                fails.append(f"level-time: mean {s.mean} not within 4 SE "
                             f"({s.stderr}) of {expect}")
        if "p-opt" in outs:
            c = outs["p-opt"]
            rate = oracle.exact_hit_rate(P_OPT_N, P_OPT_DISTANCE)
            if (c.samples, c.ell, c.n) != (P_OPT_SAMPLES, 1, P_OPT_N):
                fails.append(f"p-opt: shape {c}")
            if c.empirical != c.hits / c.samples:
                fails.append("p-opt: empirical != hits / samples")
            if not oracle.binomial_within_4sigma(c.hits, c.samples, rate):
                fails.append(f"p-opt: {c.hits} hits in {c.samples} not within 4 sigma "
                             f"of the exact rate {rate}")
            if not c.within:
                fails.append("p-opt: within is false")
        if "family-trees" in outs:
            n, mu, lam = FAMILY
            for r in outs["family-trees"]:
                if not r.hit_optimum or len(r.depth_counts) != r.iterations + 1:
                    fails.append(f"family-trees: run of {r.iterations} iterations, "
                                 f"hit_optimum {r.hit_optimum}")
                    break
                bad = [(t, d) for t, counts in enumerate(r.depth_counts)
                       for d, c in counts.items()
                       if c > mu * oracle.nodes_at_distance(t, lam, d)]
                if bad or any(sum(c.values()) != mu for c in r.depth_counts):
                    fails.append(f"family-trees: depth counts break the complete-tree "
                                 f"bound or do not sum to mu: {bad[:3]}")
                    break
        return fails


WORKLOADS = {w.name: w for w in (SweepGrid, BatchPool, LineageLab)}
