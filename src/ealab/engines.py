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
population, as descending order statistics of groups of offspring that
share one law. A group is c offspring whose parent is drawn from a mixture
of levels, in which level g weighs its member count c_g; plus and comma
selection make one group of lambda over the whole population, and the
fair-parent variant one group of c_g per level g. The step works in
survival space, s = Pr(offspring > value) under the group's mixture: the
best of c offspring has s_1 = 1 - U^(1/c) for a uniform U, and the others are
uniform above it, so s_(i+1) = s_i + (1 - s_i)(1 - V^(1/(c - i))). Each s maps
to a value through the mixture's survival function, which is evaluated
lazily, from the worst value w an offspring must beat upwards. No group
beats w with probability exp(L), L the sum of the groups' lg = log Pr(none
of its c offspring beats w); the idle iterations before one does are skipped
in one geometric draw. One uniform, conditioned on a beater, then picks the
first group with one by inversion and gives its best offspring; the groups
after it draw unconditionally. Each group's descent stops at its first
offspring that cannot beat the member it would displace, and the best mu of
members and drawn offspring survive. Comma selection has no members to
beat: its w sits just below the support, so L = -inf and no iteration is
idle, its descent draws mu offspring, and the survivors are those alone.
Its mixture's survival depends on the population only and is kept for the
4096 populations (over all (n, p)) used most recently, which small comma
runs revisit over and over.

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
from bisect import bisect_left, bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, repeat
from time import perf_counter

from .bounds import check_n, master_bound
from .genotype import (BitString, ConfigError, MultiOptOneMax, OneMax,
                       UniqueOptGeneric, check_count, mutate_mask, random_mask)
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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_n(self.n)
        check_count("mu", self.mu)
        check_count("lambda", self.lam)
        if self.lam > LAMBDA_MAX:   # an int against a float: exact, no overflow
            raise ConfigError(f"lambda must be <= {LAMBDA_MAX:.4g}, past which the "
                              "fitness-level chain's runtime law is not exact")
        if not 0.0 < self.c <= self.n:
            raise ConfigError(f"mutation scale c must satisfy 0 < c <= n, got {self.c}")
        if self.variant is Variant.COMMA and self.lam < self.mu:
            raise ConfigError("comma selection cannot fill the population: needs lambda >= mu")
        if self.variant is Variant.FAIRPLUS and self.lam != self.mu:
            raise ConfigError("fair-parent variant needs lambda = mu")
        if self.max_iterations is not None:
            check_count("max_iterations", self.max_iterations)
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")


def check_budget_mult(mult: float) -> float:
    """mult itself; ConfigError unless it is a finite number above 0."""
    if not (math.isfinite(mult) and mult > 0.0):
        raise ConfigError(f"budget multiplier must be finite and > 0, got {mult}")
    return mult


def iteration_budget(mult: float, n: int, mu: int, lam: int,
                     max_iterations: int | None = None) -> int:
    """The budget rule: max_iterations if given, else ceil(mult * master-bound total)."""
    if max_iterations is not None:
        return max_iterations
    budget = check_budget_mult(mult) * master_bound(n, mu, lam).total
    if not math.isfinite(budget):
        raise ConfigError(f"budget multiplier {mult} gives an infinite budget")
    return math.ceil(budget)


def resolve_budget(config: EaConfig) -> int:
    """Iteration budget: explicit max_iterations, else 10x the master bound."""
    return iteration_budget(DEFAULT_BUDGET_MULT, config.n, config.mu, config.lam,
                            config.max_iterations)


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
    """Keep the best mu candidates, ranked by fitness, then offspring before
    parents, then one uniform key each: ties go to offspring first, and the
    tied members kept from each group are a uniform sample of it.

    Returns (masks, fits, sources); sources[j] is the combined index of
    survivor j (parent i -> i, offspring k -> mu + k).
    Comma selection considers offspring only.
    """
    rr = rng.random
    ranked = [(fv, 1, rr(), mu + k) for k, fv in enumerate(off_fits)]
    if not comma:
        ranked += [(fv, 0, rr(), i) for i, fv in enumerate(par_fits)]
    ranked.sort(reverse=True)
    kept = ranked[:mu]
    sources = [key[3] for key in kept]
    masks = par_masks + off_masks
    return [masks[j] for j in sources], [key[0] for key in kept], sources


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
        k = v - lo
        if k < 0:
            s += c
        elif k < size:
            s += c * sur[k]
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


def _descend(parts, ms, base, k, s, rr, left, most, out, floor=None,
             log1p=math.log1p, expm1=math.expm1):
    """Append to out the values of up to `most` offspring in descending order.

    ms[k] = Pr(offspring > base + k) (see evolve_levels and _comma_survival),
    extended from parts when the walk passes its end; survival value s is
    the value x with ms[x - base] <= s < ms[x - base - 1]. The first
    offspring has survival value s, with s < ms[k - 1]. Each next one is the
    best of the `left` - i offspring below the i-th, so its survival value
    is uniform above the last one's. With `floor` (ascending values), the i-th
    offspring (from 0) is drawn only while it could beat floor[i]; the
    first that cannot ends the descent, since no later one can either.
    Without it all `most` are drawn. log1p and expm1 are bound once, as
    defaults, because each drawn offspring calls them.
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
        s += (1.0 - s) * -expm1(log1p(-rr()) / (left - i))
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

    `fits` holds the mu starting fitness values. Each iteration builds its
    offspring groups (parts, ms, base, c, lg): c offspring whose parent is
    drawn from the mixture of the levels `parts`, ms[k] = Pr(offspring >
    base + k) for base + k >= w, extended by _descend on demand, and lg =
    log Pr(none of the c beats w), where w is the value an offspring must
    beat to enter the population. Every variant then takes the same step
    (see the module docstring), which costs O(mu + levels * support)
    whatever lambda is. `changes`, when given, gets the change points of the
    run (see RunResult): (0, best, count) for the start, then (t, best,
    count) after each iteration t that changes best or count.
    """
    n, mu, lam, p = config.n, config.mu, config.lam, config.p
    comma = config.variant is Variant.COMMA
    fair = config.variant is Variant.FAIRPLUS
    tables = _tables(n, p)
    rr = rng.random
    log1p, expm1, inf = math.log1p, math.expm1, math.inf
    kth = mu - k
    fits = sorted(fits)
    if changes is not None:
        best = fits[-1]
        changes.extend((0, best, mu - bisect_left(fits, best)))
    t = 0
    while fits[kth] < thr:
        if t >= budget:
            return None
        # the groups, log_idle = the sum of their lg, and the floor: the
        # sorted members, the i-th of which a group's i-th best offspring
        # must beat to displace one. Comma: one group of lam with w just
        # below the support, and no floor. Plus: one group of lam with w the
        # worst member; fairplus: one group of c_g per level g. A group that
        # cannot beat w is left out.
        if comma:
            parts, ms, w = _comma_survival(n, p, tuple(fits))
            groups = [(parts, ms, w, lam, -inf)]
            log_idle = -inf
            floor = None
        else:
            w = fits[0]
            groups = []
            log_idle = 0.0
            floor = fits
            parts = _parts(tables, fits)
            for mix, c in [([part], part[0]) for part in parts] if fair else ((parts, lam),):
                _, lo, sur, size = mix[0]
                if len(mix) == 1 and lo <= w < lo + size:
                    ms, base = sur, lo      # one level whose table covers w: read as is
                else:
                    ms, base = [_mixture(mix, w)], w
                u = ms[w - base]
                if u > 0.0:
                    lg = c * log1p(-u) if u < 1.0 else -inf
                    groups.append((mix, ms, base, c, lg))
                    log_idle += lg
        if log_idle > -inf:
            # the idle iterations, each one with probability exp(log_idle)
            x = log1p(-rr()) / log_idle if log_idle < 0.0 else inf
            if x >= 1.0:
                t += budget - t if x >= budget - t else int(x)
                if t >= budget:
                    return None
        # r = log U for a uniform U conditioned on a beater in some group. A
        # group has one iff lg < r, and then its best offspring has survival
        # value -expm1(r / c); while none has, r - lg is again such a log
        # uniform for the groups left. After a group with a beater, the next
        # group draws a fresh r.
        r = log1p(-rr() * -expm1(log_idle))
        offs = []
        for mix, ms, base, c, lg in groups:
            if r is None:
                r = log1p(-rr())
            if lg < r:
                _descend(mix, ms, base, w + 1 - base, -expm1(r / c), rr, c,
                         c if c < mu else mu, offs, floor)
                r = None
            else:
                r -= lg
        if floor is not None:
            offs += floor
        offs.sort()
        fits = offs[-mu:]
        t += 1
        if changes is not None:
            best = fits[-1]
            count = mu - bisect_left(fits, best)
            if best != changes[-2] or count != changes[-1]:
                changes.extend((t, best, count))
    return t


def _check_dimension(config: EaConfig, f) -> None:
    if f.n != config.n:
        raise ConfigError(f"dimension mismatch: config n={config.n}, fitness n={f.n}")


def check_fitness(config: EaConfig, f) -> None:
    """ConfigError unless f is one of the LUMPABLE benchmarks, whose fitness
    levels the chain evolves, at the dimension config.n."""
    if not isinstance(f, LUMPABLE):
        raise ConfigError(f"cannot construct fitness levels for {f!r}")
    _check_dimension(config, f)


def run(config: EaConfig, f, rng=None) -> RunResult:
    """Execute one run of the configured variant on the benchmark f, drawing
    from rng (default random.Random(config.seed)).

    The initial population is uniform random. Termination is checked on the
    initial population and then after every selection step; running out of
    budget is a normal, flagged result, never an exception. `run` has one
    engine, the fitness-level chain of evolve_levels, so f must be one of the
    LUMPABLE benchmarks; any other fitness raises ConfigError before a draw.
    """
    check_fitness(config, f)
    mu, lam = config.mu, config.lam
    if rng is None:
        rng = random.Random(config.seed)
    budget = resolve_budget(config)
    fits = [f.value(random_mask(rng, config.n)) for _ in range(mu)]
    changes = []
    t = evolve_levels(config, rng, fits, budget, 1, f.opt_threshold, changes)
    if t is None:
        return RunResult(None, mu + lam * budget, budget, tuple(changes), False)
    return RunResult(t, mu + lam * t, t, tuple(changes), True)


def _run_one(args):
    config, f, seed = args
    return run(config, f, random.Random(seed))


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
    check_count("replicates", replicates)
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
        results.append(run(config, f, random.Random(seed)))
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
        _check_dimension(config, f)
        self.config = config
        self.fitness = f
        self.rng = rng if rng is not None else random.Random(config.seed)
        n, mu = config.n, config.mu
        if initial_masks is None:
            self.masks = [random_mask(self.rng, n) for _ in range(mu)]
        else:
            masks = list(initial_masks)
            if len(masks) != mu:
                raise ConfigError(f"initial population must have mu={mu} members")
            for m in masks:
                BitString(n, m)     # ConfigError when m is out of range
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
