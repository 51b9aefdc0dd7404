"""The three algorithm variants: a fitness-level engine behind `run`, and a
genotype engine for identity instrumentation.

Variants: elitist plus-selection (best mu of mu+lambda), comma-selection
(best mu of the lambda offspring, needs lambda >= mu), and the fair-parent
plus variant (mu = lambda, exactly one offspring per parent).

On the three benchmarks (OneMax, MultiOptOneMax, UniqueOptGeneric) an
offspring's fitness depends only on its parent's fitness: it is
g - Bin(g, p) + Bin(n - g, p) for a parent at fitness g, counting agreements
with the target for UniqueOptGeneric. Selection looks only at fitness, and
which of several tied members survives does not change the multiset of
fitness values, so neither does the tie policy. That multiset is therefore a
Markov chain with the runtime law of the genotype process. `run`, and with
it `run_batch`, the sweeps and the dominance comparisons, evolve this chain
(`evolve_levels`), skipping idle iterations in one draw wherever the whole
population sits on one level; the takeover module uses it for takeover at
i >= 1 and for level-leaving times.

`EvolutionState` runs the genotype process one iteration at a time and
exposes offspring parentage and survivor sources, which the marker takeover
(i = 0) and family-tree instrumentation build on. It also runs `run` on any
other fitness object, and tests compare the two engines through it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import repeat

from .bounds import master_bound
from .genotype import (BitString, ConfigError, MultiOptOneMax, OneMax,
                       UniqueOptGeneric, flip_mask)
from .rng import _sampler, binomial_pmf, cdf, mix64

#: budget applied when EaConfig.max_iterations is None, in multiples of the
#: master-bound total (rounded up), so sweeps terminate even at adversarial
#: parameters.
DEFAULT_BUDGET_MULT = 10.0

#: fitness types whose offspring fitness depends on the parent's fitness alone
LUMPABLE = (OneMax, MultiOptOneMax, UniqueOptGeneric)


class Variant(Enum):
    PLUS = "plus"
    COMMA = "comma"
    FAIRPLUS = "fairplus"


class TiePolicy(Enum):
    # prefer offspring over parents, break remaining ties uniformly
    OFFSPRING_FIRST_RANDOM = "offspring-first-random"
    # break all ties uniformly over parents and offspring together
    UNIFORM_RANDOM = "uniform-random"


@dataclass(frozen=True)
class EaConfig:
    """Full run specification. p = c/n is the per-bit mutation probability."""

    n: int
    mu: int
    lam: int
    variant: Variant = Variant.PLUS
    c: float = 1.0
    tie_policy: TiePolicy = TiePolicy.OFFSPRING_FIRST_RANDOM
    max_iterations: int | None = None
    seed: int = 0

    @property
    def p(self) -> float:
        return self.c / self.n

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.mu < 1:
            raise ConfigError(f"mu must be >= 1, got {self.mu}")
        if self.lam < 1:
            raise ConfigError(f"lambda must be >= 1, got {self.lam}")
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
class Population:
    """Multiset of (genotype, cached fitness) pairs of size mu."""

    members: tuple

    def __len__(self):
        return len(self.members)

    def best(self):
        return max(self.members, key=lambda m: m[1])

    def fitness_values(self):
        return [fit for _, fit in self.members]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    iterations_to_opt is None when the budget ran out (the Budget-Exhausted
    marker); otherwise the number of iterations executed before an optimum
    entered the population, with 0 meaning the initial population already
    contained one. Traces carry one entry for the initial population plus one
    per executed iteration.
    """

    iterations_to_opt: int | None
    evaluations: int
    best_fitness_trace: tuple
    best_count_trace: tuple
    hit_optimum: bool

    @property
    def exhausted(self) -> bool:
        return self.iterations_to_opt is None


def _make_offspring(rng, masks, n, lam, sampler, fair):
    """lambda offspring masks and their parent indices.

    Plus/comma pick each parent uniformly with replacement; the fair variant
    mutates parent k into offspring k.
    """
    cum = sampler._cum
    rr = rng.random
    randrange = rng.randrange
    mu = len(masks)
    off_masks = []
    parent_idx = []
    for k in range(lam):
        i = k if fair else randrange(mu)
        flips = bisect_right(cum, rr())
        off_masks.append(masks[i] ^ flip_mask(rng, n, flips) if flips else masks[i])
        parent_idx.append(i)
    return off_masks, parent_idx


def _select(rng, mu, par_masks, par_fits, off_masks, off_fits,
            comma, offspring_first):
    """Keep the best mu candidates; ties per policy.

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
        if comma or not offspring_first:
            pool = [(1, i) for i in tie_par] + [(0, k) for k in tie_off]
            for is_par, idx in rng.sample(pool, need):
                if is_par:
                    new_masks.append(par_masks[idx])
                    new_fits.append(par_fits[idx])
                    sources.append(idx)
                else:
                    new_masks.append(off_masks[idx])
                    new_fits.append(off_fits[idx])
                    sources.append(mu + idx)
        else:
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


@lru_cache(maxsize=4096)
def _level_table(n: int, p: float, g: int) -> tuple:
    """Offspring-fitness law of a parent at fitness g: g - Bin(g, p) + Bin(n - g, p).

    Returns (lo, cum, u, log_q, up_lo, up_cum). An offspring's fitness is
    lo + bisect_right(cum, U) for a uniform U; u = Pr(offspring > g) and
    log_q = log(1 - u); an offspring known to gain has fitness
    up_lo + bisect_right(up_cum, U). The two binomials come from
    binomial_pmf directly, so these tables never evict rng's cached samplers.
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
    lo = g - l0 - top + g0 + shift
    start = max(0, g + 1 - lo)
    up = off[start:]
    u = min(1.0, math.fsum(up))
    return (lo, cdf(off), u, math.log1p(-u) if u < 1.0 else -math.inf,
            lo + start, cdf(up, u) if u > 0.0 else None)


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
    """Per-run map from a fitness level to its table, filled on first visit."""

    def __init__(self, n, p):
        super().__init__()
        self.n = n
        self.p = p

    def __missing__(self, g):
        table = self[g] = _level_table(self.n, self.p, g)
        return table


def evolve_levels(config: EaConfig, rng, fits, budget: int, k: int, thr: int,
                  ftrace: list, ctrace: list):
    """Run the fitness-level chain of `config` until its k-th best fitness
    reaches thr; the iterations taken, or None when the budget ran out first.

    `fits` holds the mu starting fitness values. Each offspring picks its
    parent as the variant does and draws its fitness from the parent level's
    table; selection keeps the best mu values. While every member has the
    same fitness m under plus or fairplus selection, an iteration changes the
    population only if some offspring gains, so the idle iterations are
    skipped in one geometric draw and the changing one starts at the first
    gaining offspring (the ones before it cannot displace anything). Traces
    get the starting best value and count, then one entry per iteration.
    """
    n, mu, lam = config.n, config.mu, config.lam
    comma = config.variant is Variant.COMMA
    fair = config.variant is Variant.FAIRPLUS
    tables = _Tables(n, config.p)
    rr = rng.random
    kth = mu - k
    fits = sorted(fits)
    best = fits[-1]
    ftrace.append(best)
    ctrace.append(mu - bisect_left(fits, best))
    t = 0
    while fits[kth] < thr:
        if t >= budget:
            return None
        worst = fits[0]
        if worst == best and not comma:
            lo, cum, u, log_q, up_lo, up_cum = tables[worst]
            x = math.log(1.0 - rr()) / (lam * log_q) if u > 0.0 else math.inf
            idle = budget - t if x >= budget - t else int(x)
            ftrace.extend(repeat(best, idle))
            ctrace.extend(repeat(mu, idle))
            t += idle
            if t >= budget:
                return None
            # index of the first gaining offspring, given that one gains
            j = 1 + int(math.log1p(rr() * math.expm1(lam * log_q)) / log_q)
            offs = [up_lo + bisect_right(up_cum, rr())]
            for _ in range(lam - min(j, lam)):
                v = lo + bisect_right(cum, rr())
                if v > worst:
                    offs.append(v)
        else:
            offs = []
            for i in range(lam):
                table = tables[fits[i] if fair else fits[int(rr() * mu)]]
                v = table[0] + bisect_right(table[1], rr())
                if comma or v > worst:
                    offs.append(v)
        if comma:
            offs.sort()
            fits = offs[-mu:]
        elif offs:
            offs += fits
            offs.sort()
            fits = offs[-mu:]
        t += 1
        best = fits[-1]
        ftrace.append(best)
        ctrace.append(mu - bisect_left(fits, best))
    return t


def run(config: EaConfig, f) -> RunResult:
    """Execute one run of the configured variant on fitness f.

    The initial population is uniform random. Termination is checked on the
    initial population and then after every selection step; running out of
    budget is a normal, flagged result, never an exception. On the LUMPABLE
    benchmarks the run is the fitness-level chain of evolve_levels; any other
    fitness object is run on genotypes by EvolutionState.
    """
    config.validate()
    if f.n != config.n:
        raise ConfigError(f"dimension mismatch: config n={config.n}, fitness n={f.n}")
    n, mu, lam = config.n, config.mu, config.lam
    rng = random.Random(config.seed)
    budget = resolve_budget(config)
    ftrace = []
    ctrace = []
    if isinstance(f, LUMPABLE):
        fits = [f.value(rng.getrandbits(n)) for _ in range(mu)]
        t = evolve_levels(config, rng, fits, budget, 1, f.opt_threshold,
                          ftrace, ctrace)
    else:
        t = _step_to_optimum(EvolutionState(config, f, rng=rng), budget,
                             ftrace, ctrace)
    if t is None:
        return RunResult(None, mu + lam * budget, tuple(ftrace), tuple(ctrace), False)
    return RunResult(t, mu + lam * t, tuple(ftrace), tuple(ctrace), True)


def _step_to_optimum(es, budget, ftrace, ctrace):
    thr = es.fitness.opt_threshold
    t = 0
    while True:
        best = es.best_fitness
        ftrace.append(best)
        ctrace.append(es.fits.count(best))
        if best >= thr:
            return t
        if t >= budget:
            return None
        es.step()
        t += 1


def _run_one(args):
    config, f, seed = args
    return run(replace(config, seed=seed), f)


def run_batch(config: EaConfig, f, replicates: int, workers: int | None = None):
    """Independent replicates; replicate r runs with seed mix64(config.seed, r).

    Results are keyed by replicate index, so the output is bit-identical for
    any worker count and any scheduling.
    """
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    config.validate()
    seeds = [mix64(config.seed, r) for r in range(replicates)]
    if workers is not None and workers > 1:
        jobs = [(config, f, s) for s in seeds]
        chunk = max(1, replicates // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_run_one, jobs, chunksize=chunk))
    return [run(replace(config, seed=s), f) for s in seeds]


class EvolutionState:
    """Stepwise engine used by instrumented experiments.

    After each step() the previous iteration's internals are exposed:
    last_parent_idx[k] is the parent of offspring k, last_off_masks/fits the
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
        self._sampler = _sampler(n, config.c / n)
        self._comma = config.variant is Variant.COMMA
        self._fair = config.variant is Variant.FAIRPLUS
        self._offspring_first = config.tie_policy is TiePolicy.OFFSPRING_FIRST_RANDOM
        self.iteration = 0
        self.last_parent_idx = None
        self.last_off_masks = None
        self.last_off_fits = None
        self.last_sources = None

    @property
    def best_fitness(self):
        return max(self.fits)

    @property
    def best_count(self):
        best = max(self.fits)
        return self.fits.count(best)

    def step(self) -> None:
        """One iteration: offspring, evaluation, selection."""
        cfg = self.config
        off_masks, parent_idx = _make_offspring(
            self.rng, self.masks, cfg.n, cfg.lam, self._sampler, self._fair)
        value = self.fitness.value
        off_fits = [value(m) for m in off_masks]
        new_masks, new_fits, sources = _select(
            self.rng, cfg.mu, self.masks, self.fits, off_masks, off_fits,
            self._comma, self._offspring_first)
        self.last_parent_idx = parent_idx
        self.last_off_masks = off_masks
        self.last_off_fits = off_fits
        self.last_sources = sources
        self.masks = new_masks
        self.fits = new_fits
        self.iteration += 1

    def population(self) -> Population:
        n = self.config.n
        return Population(tuple((BitString(n, m), fit)
                                for m, fit in zip(self.masks, self.fits)))
