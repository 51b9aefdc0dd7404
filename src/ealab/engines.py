"""The two engines: the fitness-level chain, the one engine behind `run`,
and a stepwise genotype engine for identity instrumentation.

Variants: elitist plus-selection (best mu of mu+lambda), comma-selection
(best mu of the lambda offspring, needs lambda >= mu), and the fair-parent
plus variant (mu = lambda, exactly one offspring per parent).

On the three benchmarks (OneMax, MultiOptOneMax, UniqueOptGeneric) an
offspring's fitness depends only on its parent's fitness: it is
g - Bin(g, p) + Bin(n - g, p) for a parent at fitness g, counting agreements
with the target for UniqueOptGeneric. Selection looks only at fitness, and
prefers offspring on ties; which of several tied members survives cannot
change the multiset of fitness values. That multiset is therefore a Markov
chain with the runtime law of the genotype process. `run`, and with
it `run_batch`, the sweeps and the dominance comparisons, evolve this chain
(`evolve_levels`); the takeover module uses it for takeover at i >= 1 and
for level-leaving times.

One step of the chain draws only the offspring that can enter the
population, as descending order statistics of the lambda offspring. Under
plus and comma selection every offspring has the same law: the parent
mixture M, in which level g weighs c_g / mu (c_g members sit at g). The step
works in survival space, s = Pr(offspring > value) under M: the best of lam
offspring has s_1 = 1 - (1 - V A)^(1/lam) for a uniform V, and the others are
uniform above it, so s_(i+1) = s_i + (1 - s_i)(1 - V'^(1/(lam - i))). Each s
maps to a value through M's survival function, which is evaluated lazily,
from the worst value w upwards, and memoised for the iteration.

* Plus: an iteration changes the population only if some offspring beats w,
  which one offspring does with probability q = Pr_M(offspring > w). The
  idle iterations before it are skipped in one geometric draw, A = 1 -
  (1 - q)^lam conditions the best offspring on beating w, and the descent
  stops at the first offspring that cannot beat the member it would
  displace (at most mu of them).
* Comma: A = 1 and exactly mu draws; the population is the best mu. These
  may fall below w, so M's survival is walked from the bottom of its
  support, and it is kept for the 4096 populations (over all (n, p)) used
  most recently, which small comma runs revisit over and over.
* Fairplus: level g has exactly c_g offspring, so each level runs the same
  descent with its own law and c_g in place of lam. An iteration is idle
  with probability prod_g (1 - u_g)^c_g, u_g = Pr(offspring of g > w); the
  first level with a beater is drawn by inversion, conditioned on one, and
  the levels after it draw unconditionally.

A changing iteration costs O(mu + levels * support), whatever lambda is.
Level tables (the survival function of one level's offspring) are shared by
every run at the same (n, p).

A run records its trace as change points, one (t, best, count) triple for
the start and for each iteration that changes the best fitness or the
number of members at it; skipped idle iterations write nothing. A
`RunResult` thus holds, and a pool worker ships back, O(changes) values
rather than O(iterations), and expands the per-iteration traces only when
they are read.

`EvolutionState` runs the genotype process one iteration at a time and
exposes offspring parentage and survivor sources, which the marker takeover
(i = 0) and family-tree instrumentation build on; the tests step it as the
reference that the chain is compared against.
"""

from __future__ import annotations

import math
import os
import random
import sys
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import chain, repeat
from time import perf_counter

from .bounds import master_bound
from .genotype import (ConfigError, MultiOptOneMax, OneMax, UniqueOptGeneric,
                       mutate_mask)
from .rng import TAIL_MASS, binomial_pmf, mix64

#: budget applied when EaConfig.max_iterations is None, in multiples of the
#: master-bound total (rounded up), so sweeps terminate even at adversarial
#: parameters.
DEFAULT_BUDGET_MULT = 10.0

#: fitness types whose offspring fitness depends on the parent's fitness alone
LUMPABLE = (OneMax, MultiOptOneMax, UniqueOptGeneric)

#: the largest lambda the chain's runtime law is exact for: a level table
#: drops an upper tail of mass TAIL_MASS, which the best of lambda offspring
#: reaches with probability up to lambda * TAIL_MASS, kept below 1e-3
LAMBDA_MAX = 1e-3 / TAIL_MASS

#: seconds of in-process work after which a batch with workers > 1 hands its
#: remaining replicates to a process pool (see run_batch)
POOL_AFTER_S = 0.1


class Variant(Enum):
    PLUS = "plus"
    COMMA = "comma"
    FAIRPLUS = "fairplus"


@dataclass(frozen=True)
class EaConfig:
    """Full run specification. p = c/n is the per-bit mutation probability."""

    n: int
    mu: int
    lam: int
    variant: Variant = Variant.PLUS
    c: float = 1.0
    max_iterations: int | None = None
    seed: int = 0

    @property
    def p(self) -> float:
        return self.c / self.n

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.n > sys.float_info.max:
            raise ConfigError("n must lie within the float range")
        if self.mu < 1:
            raise ConfigError(f"mu must be >= 1, got {self.mu}")
        if self.lam < 1:
            raise ConfigError(f"lambda must be >= 1, got {self.lam}")
        if self.lam > LAMBDA_MAX:   # an int against a float: exact, no overflow
            raise ConfigError(f"lambda must be <= {LAMBDA_MAX:.4g}, past which the "
                              "fitness-level chain's runtime law is not exact")
        if not 0.0 < self.c <= self.n:
            raise ConfigError(f"mutation scale c must satisfy 0 < c <= n, got {self.c}")
        if self.variant is Variant.COMMA and self.lam < self.mu:
            raise ConfigError("comma selection cannot fill the population: needs lambda >= mu")
        if self.variant is Variant.FAIRPLUS and self.lam != self.mu:
            raise ConfigError("fair-parent variant needs lambda = mu")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")


def check_budget_mult(mult: float) -> float:
    """mult itself; ConfigError unless it is a finite number above 0."""
    if not (math.isfinite(mult) and mult > 0.0):
        raise ConfigError(f"budget multiplier must be finite and > 0, got {mult}")
    return mult


def iteration_budget(mult: float, n: int, mu: int, lam: int) -> int:
    """The budget rule: ceil(mult * master-bound total at (n, mu, lambda))."""
    budget = check_budget_mult(mult) * master_bound(n, mu, lam).total
    if not math.isfinite(budget):
        raise ConfigError(f"budget multiplier {mult} gives an infinite budget")
    return math.ceil(budget)


def resolve_budget(config: EaConfig) -> int:
    """Iteration budget: explicit max_iterations, else 10x the master bound."""
    if config.max_iterations is not None:
        return config.max_iterations
    return iteration_budget(DEFAULT_BUDGET_MULT, max(config.n, 2), config.mu, config.lam)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    iterations_to_opt is None when the budget ran out (the Budget-Exhausted
    marker); otherwise the number of iterations executed before an optimum
    entered the population, with 0 meaning the initial population already
    contained one. `iterations` is the number executed either way.

    The run's trace is stored as change points: `changes` holds flat
    (t, best, count) triples, one for the initial population (t = 0) and one
    for each iteration t after which the best fitness or the number of
    members at it differs from the triple before, so a run keeps O(changes)
    values, not O(iterations). best_fitness_trace and best_count_trace expand
    them into one entry for the initial population plus one per executed
    iteration.
    """

    iterations_to_opt: int | None
    evaluations: int
    iterations: int
    changes: tuple
    hit_optimum: bool

    @property
    def exhausted(self) -> bool:
        return self.iterations_to_opt is None

    @property
    def best_fitness_trace(self) -> tuple:
        return self._expand(1)

    @property
    def best_count_trace(self) -> tuple:
        return self._expand(2)

    def _expand(self, field):
        # entry t is the value of the last change point at or before t
        ch = self.changes
        ends = ch[3::3] + (self.iterations + 1,)
        return tuple(chain.from_iterable(
            repeat(v, end - t) for t, v, end in zip(ch[::3], ch[field::3], ends)))


def _make_offspring(rng, masks, n, lam, p, fair):
    """lambda offspring masks and their parent indices.

    Plus/comma pick each parent uniformly with replacement; the fair variant
    mutates parent k into offspring k.
    """
    mu = len(masks)
    parent_idx = list(range(lam)) if fair else [rng.randrange(mu) for _ in range(lam)]
    return [mutate_mask(masks[i], n, p, rng) for i in parent_idx], parent_idx


def _select(rng, mu, par_masks, par_fits, off_masks, off_fits, comma):
    """Keep the best mu candidates; on ties offspring go first, each group
    sampled uniformly.

    Returns (masks, fits, sources); sources[j] is the combined index of
    survivor j (parent i -> i, offspring k -> mu + k).
    Comma selection considers offspring only.
    """
    if comma:
        fits_all = off_fits
    else:
        fits_all = par_fits + off_fits
    cut = sorted(fits_all, reverse=True)[mu - 1]

    new_masks = []
    new_fits = []
    sources = []
    tie_par = []
    tie_off = []
    if not comma:
        for i, fv in enumerate(par_fits):
            if fv > cut:
                new_masks.append(par_masks[i])
                new_fits.append(fv)
                sources.append(i)
            elif fv == cut:
                tie_par.append(i)
    for k, fv in enumerate(off_fits):
        if fv > cut:
            new_masks.append(off_masks[k])
            new_fits.append(fv)
            sources.append(mu + k)
        elif fv == cut:
            tie_off.append(k)

    need = mu - len(new_masks)
    if need:
        if len(tie_off) >= need:
            chosen_off = rng.sample(tie_off, need)
            chosen_par = []
        else:
            chosen_off = tie_off
            chosen_par = rng.sample(tie_par, need - len(tie_off))
        for k in chosen_off:
            new_masks.append(off_masks[k])
            new_fits.append(off_fits[k])
            sources.append(mu + k)
        for i in chosen_par:
            new_masks.append(par_masks[i])
            new_fits.append(par_fits[i])
            sources.append(i)
    return new_masks, new_fits, sources


def _level_table(n: int, p: float, g: int) -> tuple:
    """Offspring-fitness law of a parent at fitness g: g - Bin(g, p) + Bin(n - g, p).

    Returns (lo, sur): the offspring is never below lo, and sur[k] is
    Pr(offspring > lo + k), ending in 0.0 at the top of the support. Each
    entry is the fsum of the pmf above it over the total mass, so the small
    upper-tail entries (Pr(gain) is about 1/(en) near the optimum) keep their
    relative precision. The two binomials come from binomial_pmf directly.
    """
    l0, loss = _support(binomial_pmf(g, p))
    g0, gain = _support(binomial_pmf(n - g, p))
    top = len(loss) - 1
    off = [0.0] * (top + len(gain))
    for a, pa in enumerate(loss):
        base = top - a
        for b, pb in enumerate(gain):
            off[base + b] += pa * pb
    shift, off = _support(off)
    total = math.fsum(off)
    sur = [math.fsum(off[k:]) / total for k in range(1, len(off))]
    sur.append(0.0)
    return g - l0 - top + g0 + shift, sur


def _support(pmf):
    """(index of the first nonzero entry, pmf trimmed of zero entries at both ends)."""
    first = 0
    while pmf[first] == 0.0:
        first += 1
    last = len(pmf)
    while pmf[last - 1] == 0.0:
        last -= 1
    return first, pmf[first:last]


class _Tables(dict):
    """Map from a fitness level to its table, filled on first visit."""

    def __init__(self, n, p):
        super().__init__()
        self.n = n
        self.p = p

    def __missing__(self, g):
        table = self[g] = _level_table(self.n, self.p, g)
        return table


@lru_cache(maxsize=16)
def _tables(n: int, p: float) -> _Tables:
    """The level tables of (n, p), shared by every run at that (n, p); at most
    n + 1 tables each, and the 16 most recently used (n, p) are kept."""
    return _Tables(n, p)


def _mixture(parts, v):
    """Pr(offspring > v) when the parent is a uniformly chosen member: the
    count-weighted mean of the levels' survival. Exactly 1.0 below every
    level's support."""
    s = 0.0
    mu = 0
    for c, lo, sur, size in parts:
        mu += c
        if v < lo:
            s += c
        elif v - lo < size:
            s += c * sur[v - lo]
    return s / mu


def _parts(tables, fits):
    """(member count, lo, sur, len(sur)) for each distinct level of the
    sorted population fits, lowest first."""
    mu = len(fits)
    if fits[0] == fits[-1]:
        lo, sur = tables[fits[0]]
        return [(mu, lo, sur, len(sur))]
    parts = []
    i = 0
    while i < mu:
        j = bisect_right(fits, fits[i], i)
        lo, sur = tables[fits[i]]
        parts.append((j - i, lo, sur, len(sur)))
        i = j
    return parts


def _above(parts, w):
    """(ms, base) with ms[k] = Pr(offspring > base + k) under the parts'
    mixture for base + k >= w, so ms[w - base] is the chance to beat w.

    A single level whose support covers w reads its table as is; otherwise
    ms starts at w and _descend extends it upwards on demand.
    """
    if len(parts) == 1:
        lo, sur, size = parts[0][1:]
        if lo <= w < lo + size:
            return sur, lo
    return [_mixture(parts, w)], w


@lru_cache(maxsize=4096)
def _comma_survival(n: int, p: float, fits: tuple):
    """(parts, ms, base) for the sorted population fits at (n, p) under comma
    selection: its levels (see _parts) and ms[k] = Pr(offspring > base + k)
    under its parent mixture, with base just below every level's support, so
    ms[0] = 1.0. _descend extends ms upwards on demand.

    The best offspring can fall anywhere in the support, so its walk starts
    at the bottom. ms depends on the population alone and is memoised: a
    population met again, in this run or another at the same (n, p), walks
    on the values already computed.
    """
    parts = _parts(_tables(n, p), fits)
    return parts, [1.0], min(part[1] for part in parts) - 1


def _descend(parts, ms, base, k, s, rr, left, most, out, floor=None):
    """Append to out the values of up to `most` offspring in descending order.

    ms[k] = Pr(offspring > base + k) (see _above and _comma_survival),
    extended from parts when the walk passes its end; survival value s is
    the value x with ms[x - base] <= s < ms[x - base - 1]. The first
    offspring has survival value s, with s < ms[k - 1]. Each next one is the
    best of the `left` - i offspring below the i-th, so its survival value
    is uniform above the last one's. With `floor` (ascending values), the i-th
    offspring (from 0) is drawn only while it could beat floor[i]; the
    first that cannot ends the descent, since no later one can either.
    Without it all `most` are drawn.
    """
    top = ms[k - 1]
    if s >= top:
        s = math.nextafter(top, 0.0)   # s < top but for rounding
    size = len(ms)
    while True:
        if k == size:
            ms.append(_mixture(parts, base + k))
            size += 1
        if s >= ms[k]:
            break
        k += 1
    out.append(base + k)
    top = 1.0
    for i in range(1, most):
        if floor is not None:
            if base + k <= floor[i]:
                return
            top = ms[floor[i] - base]
        s += (1.0 - s) * -math.expm1(math.log1p(-rr()) / (left - i))
        if s >= top:
            if top < 1.0:
                return
            s = math.nextafter(1.0, 0.0)
        while s >= ms[k - 1]:
            k -= 1
        out.append(base + k)


def evolve_levels(config: EaConfig, rng, fits, budget: int, k: int, thr: int,
                  changes: list | None = None):
    """Run the fitness-level chain of `config` until its k-th best fitness
    reaches thr; the iterations taken, or None when the budget ran out first.

    `fits` holds the mu starting fitness values. An iteration draws only the
    offspring that can enter the population, as descending order statistics
    of the lambda offspring in survival space (see the module docstring), so
    it costs O(mu + levels * support) whatever lambda is. Under plus and
    fairplus selection the idle iterations before the next change are
    skipped in one draw. `changes`, when given, gets the change points of
    the run (see RunResult): (0, best, count) for the start, then
    (t, best, count) after each iteration t that changes best or count.
    """
    n, mu, lam = config.n, config.mu, config.lam
    comma = config.variant is Variant.COMMA
    fair = config.variant is Variant.FAIRPLUS
    tables = _tables(n, config.p)
    rr = rng.random
    log1p, expm1 = math.log1p, math.expm1
    kth = mu - k
    fits = sorted(fits)
    if changes is not None:
        best = fits[-1]
        changes.extend((0, best, mu - bisect_left(fits, best)))
    t = 0
    while fits[kth] < thr:
        if t >= budget:
            return None
        offs = []
        if comma:
            # the best mu of lam offspring
            parts, ms, base = _comma_survival(n, config.p, tuple(fits))
            s = -expm1(log1p(-rr()) / lam)
            _descend(parts, ms, base, 1, s, rr, lam, mu, offs)
            offs.reverse()
            fits = offs
        else:
            parts = _parts(tables, fits)
            w = fits[0]
            if fair:
                # level g has its own c_g offspring; per level: part, its
                # survival ms from base, u = Pr(> w), lg = log Pr(none > w)
                levels = []
                log_idle = 0.0
                for part in parts:
                    ms, base = _above([part], w)
                    u = ms[w - base]
                    lg = part[0] * log1p(-u) if u < 1.0 else -math.inf
                    levels.append((part, ms, base, u, lg))
                    log_idle += lg
            else:
                ms, base = _above(parts, w)
                q = ms[w - base]
                log_idle = lam * log1p(-q) if q < 1.0 else -math.inf
            # the idle iterations, each one with probability exp(log_idle)
            x = log1p(-rr()) / log_idle if log_idle < 0.0 else math.inf
            if x >= 1.0:
                t += budget - t if x >= budget - t else int(x)
                if t >= budget:
                    return None
            change = -expm1(log_idle)     # Pr(some offspring beats w)
            if fair:
                # the first level with a beater, by inverting Pr(a beater
                # among the levels up to g) = 1 - exp(sum of their lg);
                # the levels after it draw unconditionally
                pick = rr() * change
                acc = 0.0
                found = False
                for part, ms, base, u, lg in levels:
                    c = part[0]
                    if found:
                        s = -expm1(log1p(-rr()) / c) if u > 0.0 else 1.0
                        if s >= u:
                            continue
                    else:
                        acc += lg
                        if -expm1(acc) <= pick:
                            continue
                        found = True
                        s = -expm1(log1p(-rr() * -expm1(lg)) / c)
                    _descend([part], ms, base, w + 1 - base, s, rr, c, c, offs, [w] * c)
            else:
                s = -expm1(log1p(-rr() * change) / lam)
                _descend(parts, ms, base, w + 1 - base, s, rr, lam, min(mu, lam),
                         offs, fits)
            offs += fits
            offs.sort()
            fits = offs[-mu:]
        t += 1
        if changes is not None:
            best = fits[-1]
            count = mu - bisect_left(fits, best)
            if best != changes[-2] or count != changes[-1]:
                changes.extend((t, best, count))
    return t


def check_fitness(config: EaConfig, f) -> None:
    """ConfigError unless f is one of the LUMPABLE benchmarks, whose fitness
    levels the chain evolves, at the dimension config.n."""
    if not isinstance(f, LUMPABLE):
        raise ConfigError(f"cannot construct fitness levels for {f!r}")
    if f.n != config.n:
        raise ConfigError(f"dimension mismatch: config n={config.n}, fitness n={f.n}")


def run(config: EaConfig, f) -> RunResult:
    """Execute one run of the configured variant on the benchmark f.

    The initial population is uniform random. Termination is checked on the
    initial population and then after every selection step; running out of
    budget is a normal, flagged result, never an exception. `run` has one
    engine, the fitness-level chain of evolve_levels, so f must be one of the
    LUMPABLE benchmarks; any other fitness raises ConfigError before a draw.
    """
    config.validate()
    check_fitness(config, f)
    mu, lam = config.mu, config.lam
    rng = random.Random(config.seed)
    budget = resolve_budget(config)
    fits = [f.value(rng.getrandbits(config.n)) for _ in range(mu)]
    changes = []
    t = evolve_levels(config, rng, fits, budget, 1, f.opt_threshold, changes)
    if t is None:
        return RunResult(None, mu + lam * budget, budget, tuple(changes), False)
    return RunResult(t, mu + lam * t, t, tuple(changes), True)


def _run_one(args):
    config, f, seed = args
    return run(replace(config, seed=seed), f)


def run_batch(config: EaConfig, f, replicates: int, workers: int | None = None):
    """Independent replicates; replicate r runs with seed mix64(config.seed, r).

    Results are keyed by replicate index, so the output is bit-identical for
    any worker count and any scheduling.

    Every batch starts in this process and runs its replicates in index
    order. With workers > 1 it hands the replicates left to a process pool
    once two things hold: the time spent so far has passed POOL_AFTER_S, and
    so has the projected rest, spent / done * left. The forked workers
    inherit the level tables built so far. POOL_AFTER_S is where a pool
    began to pay: on a 2-core host, (1+1) batches at n = 5000 with warm
    tables ran 0.3-0.7x as fast in a two-worker pool as in one process up
    to 0.03 s of serial work, broke even at about 0.06-0.1 s, and ran
    1.3-1.5x as fast from 0.11 s on. The rule pools later than that
    crossover, because a projection from the first few replicates
    overshoots: run times are skewed and the first replicate may build
    tables. On the batch-pool benchmark's batches of 0.01-0.08 s in all,
    the projection after one replicate read up to 0.95 s.

    So a batch of under about 2 * POOL_AFTER_S stays in this process, and
    so does one of two replicates. A longer batch runs max(POOL_AFTER_S,
    one replicate) here before the pool starts, which costs most where a
    few long replicates meet warm tables: fairplus (1024, 1024, 1024) with
    2 replicates and workers = 2 took about 0.48 s this way against 0.25 s
    in a pool from the start.

    The pool has min(workers, replicates left, CPUs) workers, since a
    fork-started pool forks all of them at the first submit, and gets about
    four chunks per worker; a pool of one would only add a fork and
    pickling, so a batch clamped to one worker stays in this process.
    """
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    config.validate()
    seeds = [mix64(config.seed, r) for r in range(replicates)]
    cap = min(workers or 1, os.cpu_count() or 1)
    results = []
    start = perf_counter()
    for r, seed in enumerate(seeds):
        left = replicates - r
        size = min(cap, left)
        if r and size > 1:
            spent = perf_counter() - start
            if spent >= POOL_AFTER_S and spent / r * left >= POOL_AFTER_S:
                jobs = [(config, f, s) for s in seeds[r:]]
                with ProcessPoolExecutor(max_workers=size) as ex:
                    return results + list(ex.map(_run_one, jobs,
                                                 chunksize=max(1, left // (size * 4))))
        results.append(run(replace(config, seed=seed), f))
    return results


class EvolutionState:
    """Stepwise engine used by instrumented experiments.

    After each step() the previous iteration's internals are exposed:
    last_parent_idx[k] is the parent of offspring k, last_off_masks the
    offspring, and last_sources[j] the combined index (parent i -> i,
    offspring k -> mu + k) that survivor j came from. Wrappers use these to
    carry per-member metadata (markers, ancestry depths) across selection.
    """

    def __init__(self, config: EaConfig, f, rng=None, initial_masks=None):
        config.validate()
        if f.n != config.n:
            raise ConfigError(f"dimension mismatch: config n={config.n}, fitness n={f.n}")
        self.config = config
        self.fitness = f
        self.rng = rng if rng is not None else random.Random(config.seed)
        n, mu = config.n, config.mu
        if initial_masks is None:
            self.masks = [self.rng.getrandbits(n) for _ in range(mu)]
        else:
            masks = list(initial_masks)
            if len(masks) != mu:
                raise ConfigError(f"initial population must have mu={mu} members")
            for m in masks:
                if not 0 <= m < (1 << n):
                    raise ConfigError("initial mask out of range for length n")
            self.masks = masks
        self.fits = [f.value(m) for m in self.masks]
        self._comma = config.variant is Variant.COMMA
        self._fair = config.variant is Variant.FAIRPLUS
        self.iteration = 0
        self.last_parent_idx = None
        self.last_off_masks = None
        self.last_sources = None

    @property
    def best_fitness(self):
        return max(self.fits)

    def step(self) -> None:
        """One iteration: offspring, evaluation, selection."""
        cfg = self.config
        off_masks, parent_idx = _make_offspring(
            self.rng, self.masks, cfg.n, cfg.lam, cfg.p, self._fair)
        value = self.fitness.value
        off_fits = [value(m) for m in off_masks]
        new_masks, new_fits, sources = _select(
            self.rng, cfg.mu, self.masks, self.fits, off_masks, off_fits,
            self._comma)
        self.last_parent_idx = parent_idx
        self.last_off_masks = off_masks
        self.last_sources = sources
        self.masks = new_masks
        self.fits = new_fits
        self.iteration += 1
