"""Complete offspring-lineage trees: explicit builds, distance censuses,
label-probability bounds, and the union bound over optimal labels.

A complete tree after t iterations has (lam+1)^t nodes: every node present at
the start of an iteration gains lam children. The family forest realized by an
actual run is a subforest, which is why observed ancestry-depth counts are
checked against these complete-tree counts from above.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .engines import EaConfig, EvolutionState, resolve_budget
from .genotype import BitString, ConfigError, mutate_mask
from .rng import binomial_draw

#: explicit construction refuses node counts above this
EXPLICIT_BUILD_GUARD = 10 ** 6


def total_nodes(t: int, lam: int) -> int:
    """Exact node count (lam+1)^t of the complete tree after t iterations."""
    if t < 0 or lam < 1:
        raise ConfigError("need t >= 0 and lambda >= 1")
    return (lam + 1) ** t


def count_at_distance(t: int, lam: int, ell: int) -> int:
    """Exact number C(t, ell) * lam^ell of nodes at distance ell from the root.

    ell > t yields 0 (no such nodes), which is not an error.
    """
    if t < 0 or lam < 1:
        raise ConfigError("need t >= 0 and lambda >= 1")
    if ell < 0:
        raise ConfigError("distance must be nonnegative")
    if ell > t:
        return 0
    return math.comb(t, ell) * lam ** ell


@dataclass(frozen=True)
class CompleteTreeSpec:
    """Explicit-build request: t iterations, lam children per node per
    iteration, genotypes of length n. Labels are attached only when
    root_label is given."""

    t: int
    lam: int
    n: int
    root_label: BitString | None = None
    target: BitString | None = None

    def validate(self) -> None:
        if self.t < 0 or self.lam < 1 or self.n < 1:
            raise ConfigError("need t >= 0, lambda >= 1, n >= 1")
        count = total_nodes(self.t, self.lam)
        if count > EXPLICIT_BUILD_GUARD:
            raise ConfigError(
                f"explicit build of {count} nodes exceeds guard {EXPLICIT_BUILD_GUARD}")
        if self.root_label is not None:
            if self.root_label.n != self.n:
                raise ConfigError("root label length does not match n")
            if self.n * count > EXPLICIT_BUILD_GUARD:
                raise ConfigError("labeled build exceeds guard")
        if self.target is not None and self.target.n != self.n:
            raise ConfigError("target length does not match n")


@dataclass(frozen=True)
class CompleteTree:
    """Explicitly built tree. Node j is identified by idents[j]: the root is
    () and a child is (parent_ident, iteration, child_index)."""

    spec: CompleteTreeSpec
    idents: tuple
    depths: tuple
    labels: tuple | None

    def census(self) -> dict:
        """Map distance -> node count."""
        return dict(Counter(self.depths))

    def __len__(self):
        return len(self.idents)


def build_complete_tree(spec: CompleteTreeSpec, rng=None) -> CompleteTree:
    """Materialize the complete tree; labels are drawn by standard-bit
    mutation (p = 1/n) along every edge when spec.root_label is set."""
    spec.validate()
    labeled = spec.root_label is not None
    if labeled and rng is None:
        rng = random.Random(0)
    idents = [()]
    depths = [0]
    labels = [spec.root_label.mask] if labeled else None
    p = 1.0 / spec.n
    for it in range(1, spec.t + 1):
        existing = len(idents)
        for v in range(existing):
            for i in range(spec.lam):
                idents.append((idents[v], it, i))
                depths.append(depths[v] + 1)
                if labeled:
                    labels.append(mutate_mask(labels[v], spec.n, p, rng))
    return CompleteTree(spec, tuple(idents), tuple(depths),
                        tuple(labels) if labeled else None)


def p_opt(ell: int, n: int) -> float:
    """Label-probability bound min{1, (ell/(n-1))^(n/4)}."""
    if ell < 0:
        raise ConfigError("ell must be nonnegative")
    if n < 2:
        raise ConfigError("n must be >= 2")
    if ell >= n - 1:
        return 1.0
    return (ell / (n - 1)) ** (n / 4.0)


@dataclass(frozen=True)
class POptCheck:
    """Sampled exact-hit count, its exact rate, and the p_opt bound."""

    ell: int
    n: int
    samples: int
    hits: int
    empirical: float
    bound: float
    sigma: float
    within: bool
    exact: float


def _hit_probability(n: int, hamming: int, ell: int) -> float:
    """Probability that ell sequential standard-bit mutations (p = 1/n) turn
    a string into a given one at Hamming distance hamming >= 1.

    Each bit flips independently in every mutation, so after ell of them it
    has flipped an odd number of times, independently of the other bits,
    with probability r = (1 - (1 - 2p)^ell) / 2. A hit flips exactly the
    differing bits: r^hamming (1 - r)^(n - hamming), in log space so that a
    rate below the float range is 0.0.
    """
    if ell == 0:
        return 0.0
    if n == 2:
        r = 0.5                 # log1p(-2p) has no value at p = 1/2
    else:
        r = -math.expm1(ell * math.log1p(-2.0 / n)) / 2.0
    return math.exp(hamming * math.log(r) + (n - hamming) * math.log1p(-r))


def verify_p_opt(root: BitString, target: BitString, ell: int,
                 samples: int, rng) -> POptCheck:
    """Exact rate at which ell sequential standard-bit mutations (p = 1/n)
    of the root hit the target, and one Binomial(samples, rate) draw of the
    hit count, compared against the bound p_opt(ell, n).

    Requires Hamming(root, target) >= n/4, the premise of the bound; sigma is
    the binomial standard deviation at the bound itself, so `within` means
    empirical <= bound + 3 sigma.
    """
    if root.n != target.n:
        raise ConfigError("root and target must have the same length")
    n = root.n
    if n < 2:
        raise ConfigError("n must be >= 2")
    if ell < 0:
        raise ConfigError("ell must be nonnegative")
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    hamming = root.hamming(target)
    if 4 * hamming < n:
        raise ConfigError(
            f"premise violated: Hamming distance {hamming} < n/4 = {n / 4}")
    exact = _hit_probability(n, hamming, ell)
    hits = binomial_draw(rng, samples, exact)
    empirical = hits / samples
    bound = p_opt(ell, n)
    sigma = math.sqrt(bound * (1.0 - bound) / samples)
    return POptCheck(ell, n, samples, hits, empirical, bound, sigma,
                     empirical <= bound + 3.0 * sigma, exact)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class QOptBound:
    """Union bound over optimal labels: raw value and its [0,1] clamp."""

    raw: float
    clamped: float


def q_opt_bound(t: int, n: int, mu: int, lam: int) -> QOptBound:
    """mu * sum_{ell=0}^{t} C(t,ell) (lam/mu)^ell p_opt(ell, n), accumulated in
    log space so neither the binomials nor the tiny p_opt factors overflow or
    underflow; a sum past the float range is reported as inf, clamped to 1.
    An exact-rational cross-check is `q_opt_bound_exact`."""
    if t < 0 or n < 2 or mu < 1 or lam < 1:
        raise ConfigError("need t >= 0, n >= 2, mu >= 1, lambda >= 1")
    log_ratio = math.log(lam / mu)
    log_mu = math.log(mu)
    log_comb = 0.0                          # log C(t, ell), one factor at a time
    log_terms = []
    for ell in range(1, t + 1):
        log_comb += math.log(t - ell + 1) - math.log(ell)
        # log p_opt without going through the (possibly underflowing) float
        if ell >= n - 1:
            log_p = 0.0
        else:
            log_p = (n / 4.0) * (math.log(ell) - math.log(n - 1))
        log_terms.append(log_mu + log_comb + ell * log_ratio + log_p)
    if not log_terms:
        return QOptBound(0.0, 0.0)
    m = max(log_terms)
    if m > _LOG_FLOAT_MAX:
        return QOptBound(math.inf, 1.0)
    raw = math.exp(m) * math.fsum(math.exp(x - m) for x in log_terms)
    return QOptBound(raw, min(1.0, raw))


def q_opt_bound_exact(t: int, n: int, mu: int, lam: int) -> Fraction:
    """Exact-rational accumulation of the same sum; needs n divisible by 4 so
    the p_opt exponent is integral. Returns the raw (unclamped) value."""
    if n % 4 != 0:
        raise ConfigError("exact accumulation needs n divisible by 4")
    if t < 0 or n < 2 or mu < 1 or lam < 1:
        raise ConfigError("need t >= 0, n >= 2, mu >= 1, lambda >= 1")
    total = Fraction(0)
    for ell in range(1, t + 1):
        p = min(Fraction(1), Fraction(ell, n - 1) ** (n // 4))
        total += mu * math.comb(t, ell) * Fraction(lam, mu) ** ell * p
    return total


@dataclass(frozen=True)
class FamilyTreeResult:
    """Ancestry-depth distribution of the population over time.

    depth_counts[k] maps depth (mutations since an initial individual) to the
    number of members at that depth after k iterations; entry 0 is the initial
    population, where every depth is 0.
    """

    iterations: int
    depth_counts: tuple
    hit_optimum: bool

    def max_depths(self):
        return [max(c) for c in self.depth_counts]


def simulate_family_tree(config: EaConfig, f) -> FamilyTreeResult:
    """Instrument a real run, tracking depth counters on individuals rather
    than materializing trees; the realized forest has only mu + lam*t nodes."""
    config.validate()
    es = EvolutionState(config, f)
    mu = config.mu
    depths = [0] * mu
    records = [dict(Counter(depths))]
    budget = resolve_budget(config)
    thr = f.opt_threshold
    hit = es.best_fitness >= thr
    t = 0
    while not hit and t < budget:
        es.step()
        t += 1
        parent_idx = es.last_parent_idx
        depths = [depths[s] if s < mu else depths[parent_idx[s - mu]] + 1
                  for s in es.last_sources]
        records.append(dict(Counter(depths)))
        hit = es.best_fitness >= thr
    return FamilyTreeResult(t, tuple(records), hit)
