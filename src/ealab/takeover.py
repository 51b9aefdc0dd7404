"""Empirical takeover and level-leaving times, plus the copy-only reference
process used for lower bounds.

Takeover runs start from a worst-case-consistent plateau population: j1
members carry a fixed string of fitness i and the mu - j1 fillers sit exactly
one fitness level below, so plus-selection never ejects fit members in favor
of fillers. "Fit" means fitness >= i. Both this measurement at i >= 1 and the
level-leaving time look only at fitness values, so they run on the
fitness-level chain of `engines.evolve_levels`, which has the same law as
the genotype process. The degenerate i = 0 construction follows identities
instead: a strictly worse filler is impossible and every string is trivially
at fitness >= 0, so the j1 designated members carry a marker that offspring
inherit from their parent, and the marked lineage count plays the role of
the fit count. It steps `EvolutionState`; a marker run whose lineage dies
out is censored at once rather than stepped to the cap.

The copy-only process is simulated at the level of counts. Its law depends
only on the number of desired members, so this is exact, not an approximation.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .bounds import _ratio, check_fit_counts, check_level, check_n, takeover_bound_general
from .engines import (EaConfig, EvolutionState, Variant, check_fitness,
                      evolve_levels, resolve_budget)
from .genotype import ConfigError, OneMax, check_count
from .rng import binomial_draw, mix64
from .stats import SampleStats, summarize

#: the marker takeover at i = 0 builds all lambda offspring each iteration,
#: so it refuses a lambda above this
EXPLICIT_BUILD_GUARD = 10 ** 6


@dataclass(frozen=True)
class TakeoverSpec:
    """Plateau takeover measurement: count of fitness >= i members from j1 to j2."""

    n: int
    mu: int
    lam: int
    i: int
    j1: int
    j2: int
    c: float = 1.0
    replicates: int = 100
    seed: int = 0
    max_iterations: int | None = None   # safety cap; None derives one

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_fit_counts(self.mu, self.j1, self.j2)
        check_level(self.n, self.i)
        check_count("replicates", self.replicates)
        # the EaConfig rules: n, mu, lambda, c and the cap
        EaConfig(self.n, self.mu, self.lam, Variant.PLUS, self.c,
                 max_iterations=self.max_iterations)
        if self.i == 0 and self.lam > EXPLICIT_BUILD_GUARD:
            raise ConfigError(f"takeover at i = 0 builds all lambda offspring each "
                              f"iteration: needs lambda <= {EXPLICIT_BUILD_GUARD}")


@dataclass(frozen=True)
class Ea0Spec:
    """Copy-only growth measurement: desired count from j1 to j2."""

    n: int
    mu: int
    lam: int
    j1: int
    j2: int
    replicates: int = 100
    seed: int = 0
    max_iterations: int | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_fit_counts(self.mu, self.j1, self.j2)
        check_n(self.n)
        check_count("lambda", self.lam)
        _ratio(self.lam, self.mu)   # ConfigError where lambda/mu is past the float range
        if self.mu > sys.float_info.max or self.lam > sys.float_info.max:
            raise ConfigError("mu and lambda must lie within the float range")
        check_count("replicates", self.replicates)
        if self.max_iterations is not None:
            check_count("max_iterations", self.max_iterations)


def _takeover_cap(spec: TakeoverSpec) -> int:
    if spec.max_iterations is not None:
        return spec.max_iterations
    bound = takeover_bound_general(spec.mu, spec.lam, spec.j1, spec.j2)
    return int(math.ceil(50.0 * (bound + spec.j2 + 10.0)))


def measure_takeover(spec: TakeoverSpec) -> SampleStats:
    """Sample tau: iterations of the plus engine until >= j2 fit members.

    For i >= 1 the fit count is non-decreasing under plus-selection, so the
    safety cap is never binding in practice; these runs evolve fitness
    levels. In the i = 0 marker construction the marked lineage competes on
    equal terms and can die out. Such a run is censored as soon as its last
    marked member is gone, since no later step can bring the marker back; it
    counts as exhausted, as a capped run would.
    """
    cap = _takeover_cap(spec)
    config = EaConfig(spec.n, spec.mu, spec.lam, Variant.PLUS, spec.c)
    once = _takeover_once_marked if spec.i == 0 else _takeover_once
    return _replicates(spec.seed, spec.replicates,
                       lambda rng: once(rng, spec, config, cap))


def _replicates(seed, replicates, once) -> SampleStats:
    # replicate r draws from mix64(seed, r); once(rng) returns tau or None
    samples = []
    exhausted = 0
    for r in range(replicates):
        tau = once(random.Random(mix64(seed, r)))
        if tau is None:
            exhausted += 1
        else:
            samples.append(tau)
    return summarize(samples, exhausted)


def _takeover_once(rng, spec, config, cap):
    # i >= 1: j1 members at fitness i, the fillers at i - 1
    fits = [spec.i] * spec.j1 + [spec.i - 1] * (spec.mu - spec.j1)
    return evolve_levels(config, rng, fits, cap, spec.j2, spec.i)


def _takeover_once_marked(rng, spec, config, cap):
    # i = 0: offspring inherit the parent's marker, survivors keep theirs
    mu, j2 = spec.mu, spec.j2
    es = EvolutionState(config, OneMax(spec.n), rng=rng, initial_masks=[0] * mu)
    flags = [True] * spec.j1 + [False] * (mu - spec.j1)
    t = 0
    while t < cap:
        es.step()
        t += 1
        parent_idx = es.last_parent_idx
        flags = [flags[s] if s < mu else flags[parent_idx[s - mu]]
                 for s in es.last_sources]
        marked = sum(flags)
        if marked >= j2:
            return t
        if not marked:
            return None
    return None


def _q_copy(n):
    # (1 - 1/n)^n in log space: the direct power rounds 1 - 1/n to 1.0 from
    # n ~ 1e16 on, and overflows for n past the float range
    return math.exp(n * math.log1p(-1.0 / n))


def ea0_once(rng, n, mu, lam, j1, j2, cap):
    """One copy-only run: (iterations to reach j2 or None, change points
    (t, j) from (0, j1) on, one per iteration t that moved the count to j).

    Each of the lambda offspring picks a uniform parent and is accepted only
    when that parent is desired and mutation changed nothing, which happens
    with probability r = j (1 - 1/n)^n / mu at count j; the count is capped
    at mu. Idle iterations are skipped in one geometric draw; a move accepts
    a first offspring K, drawn given one is, and 1 + Bin(lambda - K, r) in all.
    """
    q_copy = _q_copy(n)
    rr = rng.random
    log1p = math.log1p
    j = j1
    t = 0
    points = [(0, j)]
    while j < j2:
        r = j * q_copy / mu
        log_r = log1p(-r)
        log_idle = lam * log_r            # log Pr(no offspring accepted)
        x = log1p(-rr()) / log_idle
        if x >= cap - t:
            return None, points
        t += int(x) + 1
        move = -math.expm1(log_idle)      # Pr(some offspring is accepted)
        # the first accepted offspring, kept in 1..lambda against rounding
        k = min(lam, max(1, math.ceil(log1p(-rr() * move) / log_r)))
        j = min(mu, j + 1 + binomial_draw(rng, lam - k, r))
        points.append((t, j))
    return t, points


def _ea0_cap(spec: Ea0Spec) -> int:
    if spec.max_iterations is not None:
        return spec.max_iterations
    # p1 = 1 - (1 - q j1/mu)^lam: the chance that the count moves at all from j1
    p1 = -math.expm1(spec.lam * math.log1p(-_q_copy(spec.n) * spec.j1 / spec.mu))
    cap = 200.0 * (spec.j2 - spec.j1) / p1
    if not math.isfinite(cap):
        raise ConfigError("the derived iteration cap is past the float range: "
                          "give --max-iterations")
    return max(1000, math.ceil(cap))


def run_ea0(spec: Ea0Spec) -> SampleStats:
    """Sample tau*: first time the desired count reaches j2, starting at j1."""
    cap = _ea0_cap(spec)
    return _replicates(spec.seed, spec.replicates, lambda rng: ea0_once(
        rng, spec.n, spec.mu, spec.lam, spec.j1, spec.j2, cap)[0])


def measure_level_time(config: EaConfig, f, i: int, replicates: int) -> SampleStats:
    """Sample the level-leaving time: iterations until best fitness exceeds i,
    starting from one member at fitness exactly i and mu - 1 one level below
    (all mu at 0 when i = 0). The runs evolve fitness levels, so f must be
    one of the LUMPABLE benchmarks."""
    check_fitness(config, f)
    check_level(config.n, i)
    check_count("replicates", replicates)
    cap = resolve_budget(config)
    initial = [i] + [max(i - 1, 0)] * (config.mu - 1)
    return _replicates(config.seed, replicates, lambda rng: evolve_levels(
        config, rng, initial, cap, 1, i + 1))
