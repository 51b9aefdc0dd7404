"""Complete offspring-lineage trees: closed-form distance censuses,
label-probability bounds with the exact hit rate they bound, the union bound
over optimal labels, and ancestry depths tracked on real runs.

A complete tree after t iterations has (lam+1)^t nodes: every node present at
the start of an iteration gains lam children. The family forest realized by an
actual run is a subforest, which is why observed ancestry-depth counts are
checked against these complete-tree counts from above.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

from .bounds import check_n
from .engines import EaConfig, EvolutionState, resolve_budget
from .genotype import BitString, ConfigError, check_count
# unused here: bench/tracer.py patches trees.mutate_mask by name (ROADMAP item 7)
from .genotype import mutate_mask
from .rng import binomial_draw


def _check_tree(t, lam):
    if t < 0 or lam < 1:
        raise ConfigError("need t >= 0 and lambda >= 1")


def total_nodes(t: int, lam: int) -> int:
    """Exact node count (lam+1)^t of the complete tree after t iterations."""
    _check_tree(t, lam)
    return (lam + 1) ** t


def count_at_distance(t: int, lam: int, ell: int) -> int:
    """Exact number C(t, ell) * lam^ell of nodes at distance ell from the root.

    ell > t yields 0 (no such nodes), which is not an error.
    """
    _check_tree(t, lam)
    if ell < 0:
        raise ConfigError("distance must be nonnegative")
    if ell > t:
        return 0
    return math.comb(t, ell) * lam ** ell


def p_opt(ell: int, n: int) -> float:
    """Label-probability bound min{1, (ell/(n-1))^(n/4)}."""
    if ell < 0:
        raise ConfigError("ell must be nonnegative")
    check_n(n)
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
    return verify_p_opt_at(root.n, root.hamming(target), ell, samples, rng)


def verify_p_opt_at(n: int, hamming: int, ell: int, samples: int, rng) -> POptCheck:
    """verify_p_opt for any root and target hamming bits apart: the rate
    depends on the two strings only through n and that distance, so none
    is built."""
    if not 0 < hamming <= n:
        raise ConfigError(f"need 1 <= hamming <= n, got {hamming}")
    bound = p_opt(ell, n)
    check_count("samples", samples)
    if samples > sys.float_info.max:
        raise ConfigError("samples must lie within the float range")
    if 4 * hamming < n:
        raise ConfigError(
            f"premise violated: Hamming distance {hamming} < n/4 = {n / 4}")
    exact = _hit_probability(n, hamming, ell)
    hits = binomial_draw(rng, samples, exact)
    empirical = hits / samples
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
    underflow; a sum past the float range is reported as inf, clamped to 1."""
    _check_tree(t, lam)
    check_n(n)
    check_count("mu", mu)
    log_ratio = math.log(lam) - math.log(mu)   # lam / mu may be past the float range
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
    m = max(log_terms, default=-math.inf)
    if m == -math.inf:      # no term, or every p_opt underflows log space (n >~ 10^307)
        return QOptBound(0.0, 0.0)
    if m > _LOG_FLOAT_MAX:
        return QOptBound(math.inf, 1.0)
    raw = math.exp(m) * math.fsum(math.exp(x - m) for x in log_terms)
    return QOptBound(raw, min(1.0, raw))


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
