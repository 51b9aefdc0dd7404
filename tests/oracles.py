"""Independent reference computations backing the test suite.

Everything here but `genotype_batch` re-derives expected values from first
principles with its own arithmetic (exact rationals or absorbing-chain
back-substitution) and shares no code with the package beyond the standard
library, so agreement between package and oracle is evidence rather than
circularity. `genotype_batch` steps the package's genotype engine, which
shares no step with the fitness-level chain behind `ealab.run`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from ealab.engines import EvolutionState, RunResult, Variant, resolve_budget
from ealab.genotype import ConfigError
from ealab.rng import mix64


def popcount_slow(mask: int) -> int:
    """Bit count by shift-and-mask, deliberately avoiding int.bit_count."""
    count = 0
    while mask:
        count += mask & 1
        mask >>= 1
    return count


def onemax_transition(n: int, i: int, j: int, p: float) -> float:
    """P(one standard-bit mutation moves a popcount-i string to popcount j),
    summed over (ones flipped off, zeros flipped on) pairs."""
    total = 0.0
    for a in range(i + 1):
        b = j - i + a
        if b < 0 or b > n - i:
            continue
        total += (math.comb(i, a) * math.comb(n - i, b)
                  * p ** (a + b) * (1.0 - p) ** (n - a - b))
    return total


def one_plus_one_expected_iterations(n: int, p: float | None = None) -> float:
    """Expected iterations of the elitist single-individual process on the
    count-of-ones objective from a uniform random start.

    The popcount is Markov: acceptance never decreases fitness, equal-fitness
    swaps preserve the count, and the mutation law depends on the count only.
    Hitting times then follow by back-substitution over the levels.
    """
    if p is None:
        p = 1.0 / n
    expected = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        up = {j: onemax_transition(n, i, j, p) for j in range(i + 1, n + 1)}
        q = sum(up.values())
        expected[i] = (1.0 + sum(w * expected[j] for j, w in up.items())) / q
    weights = [math.comb(n, i) / 2.0 ** n for i in range(n + 1)]
    return sum(w * e for w, e in zip(weights, expected))


def reach_probability(ones: int, zeros: int, delta: int, p: Fraction) -> Fraction:
    """P(gain - loss >= delta) for one mutation of a string with the given
    one/zero counts; exact rational arithmetic."""
    total = Fraction(0)
    for a in range(ones + 1):
        for b in range(zeros + 1):
            if b - a >= delta:
                total += (math.comb(ones, a) * math.comb(zeros, b)
                          * p ** (a + b) * (1 - p) ** (ones + zeros - a - b))
    return total


def two_member_takeover_mean(n: int = 10, i: int = 5) -> float:
    """Expected iterations until a second fitness >= i member survives in the
    two-parent, two-offspring elitist process started from one member at
    fitness i and one at i - 1.

    On failure the survivor profile is again (i, i-1): the fit member is never
    ejected and the second slot holds some popcount-(i-1) string, whose
    mutation law is the same by exchangeability. Success probability is
    therefore constant across iterations and the takeover time geometric.
    Success itself does not depend on how ties are broken: it only needs one
    offspring at fitness >= i, which then survives next to the fit parent.
    """
    p = Fraction(1, n)
    r_fit = reach_probability(i, n - i, 0, p)
    r_filler = reach_probability(i - 1, n - i + 1, 1, p)
    r = (r_fit + r_filler) / 2
    q = 1 - (1 - r) ** 2
    return float(1 / q)


def ea0_expected_iterations(n: int, mu: int, lam: int, j1: int, j2: int) -> float:
    """Expected iterations for the copy-only count process to reach j2 from
    j1: state j jumps to min(mu, j + N), N ~ Binomial(lam, j q / mu) with
    q = (1 - 1/n)^n; every j >= j2 is absorbing."""
    q_copy = (1.0 - 1.0 / n) ** n
    expected = {j: 0.0 for j in range(j2, mu + 1)}
    for j in range(j2 - 1, j1 - 1, -1):
        pj = j * q_copy / mu
        pmf = [math.comb(lam, k) * pj ** k * (1.0 - pj) ** (lam - k)
               for k in range(lam + 1)]
        acc = 1.0
        for k in range(1, lam + 1):
            acc += pmf[k] * expected[min(mu, j + k)]
        expected[j] = acc / (1.0 - pmf[0])
    return expected[j1]


def copy_takeover_geometric_mean(n: int, mu: int, lam: int, j1: int) -> float:
    """Mean of the geometric time until any of the lam offspring is an exact
    copy of one of the j1 desired members (per-offspring copy probability
    j1 (1-1/n)^n / mu)."""
    q_copy = (1.0 - 1.0 / n) ** n
    success = 1.0 - (1.0 - j1 * q_copy / mu) ** lam
    return 1.0 / success


def single_flip_level_mean(n: int) -> float:
    """Expected iterations to leave level n-1 with one parent and one
    offspring: geometric with p = (1/n)(1-1/n)^(n-1), the probability of
    flipping the unique zero and nothing else."""
    p = (1.0 / n) * (1.0 - 1.0 / n) ** (n - 1)
    return 1.0 / p


def level_bound_scan(n: int, mu: int, lam: int, i: int):
    """Brute-force minimization of the general level bound over mu0."""
    best_m, best_v = None, None
    for m0 in range(1, mu + 1):
        value = (m0 + (2.0 * math.e * mu / lam) * (math.log(m0) + 1.0)
                 + math.e * mu * n / (lam * (n - i) * m0))
        if best_v is None or value < best_v:
            best_m, best_v = m0, value
    return best_m, best_v


def exact_hit_rate_one_mutation(n: int, hamming: int) -> float:
    """P(one standard-bit mutation at p = 1/n lands exactly on a target at
    the given Hamming distance): flip the differing bits, keep the rest."""
    return (1.0 / n) ** hamming * (1.0 - 1.0 / n) ** (n - hamming)


def complete_tree_census(t: int, lam: int) -> dict:
    """Node count by distance from the root of the complete tree after t
    iterations, built node by node: every node present at the start of an
    iteration gains lam children."""
    depths = [0]
    for _ in range(t):
        depths += [d + 1 for d in depths for _ in range(lam)]
    return dict(Counter(depths))


def q_opt_bound_exact(t: int, n: int, mu: int, lam: int) -> Fraction:
    """Exact-rational accumulation of the sum `ealab.q_opt_bound` takes in
    log space; needs n divisible by 4 so the p_opt exponent is integral.
    Returns the raw (unclamped) value."""
    if n % 4 != 0:
        raise ConfigError("exact accumulation needs n divisible by 4")
    if t < 0 or n < 2 or mu < 1 or lam < 1:
        raise ConfigError("need t >= 0, n >= 2, mu >= 1, lambda >= 1")
    total = Fraction(0)
    for ell in range(1, t + 1):
        p = min(Fraction(1), Fraction(ell, n - 1) ** (n // 4))
        total += mu * math.comb(t, ell) * Fraction(lam, mu) ** ell * p
    return total


def pool_cells(observed, expected):
    """Merge neighbouring cells, left to right, until each holds an expected
    count of at least 5 (a remainder joins the last cell), so a chi-square
    test can be run on the result: returns (observed, expected) lists."""
    obs_pooled, exp_pooled = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_pooled.append(acc_o)
            exp_pooled.append(acc_e)
            acc_o = acc_e = 0.0
    obs_pooled[-1] += acc_o
    exp_pooled[-1] += acc_e
    return obs_pooled, exp_pooled


def one_plus_lambda_expected_iterations(n: int, lam: int) -> float:
    """Expected iterations of the elitist one-parent, lam-offspring process
    on the count-of-ones objective from a uniform random start.

    The parent's popcount is Markov: it moves to the best offspring count
    when that is higher and stays otherwise. With F the single-offspring
    distribution function from count i, the best of lam offspring is at
    most j with probability F(j)^lam; hitting times follow by
    back-substitution over the levels.
    """
    p = 1.0 / n
    expected = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        cdf = 0.0
        below = {}
        for j in range(n + 1):
            cdf += onemax_transition(n, i, j, p)
            below[j] = min(cdf, 1.0) ** lam
        up = {j: below[j] - below[j - 1] for j in range(i + 1, n + 1)}
        q = 1.0 - below[i]
        expected[i] = (1.0 + sum(w * expected[j] for j, w in up.items())) / q
    weights = [math.comb(n, i) / 2.0 ** n for i in range(n + 1)]
    return sum(w * e for w, e in zip(weights, expected))


def _offspring_cdfs(n: int, p: float) -> list:
    """cdfs[g][v] = P(offspring popcount <= v) for a parent at popcount g."""
    cdfs = []
    for g in range(n + 1):
        acc, cdf = 0.0, []
        for v in range(n + 1):
            acc += onemax_transition(n, g, v, p)
            cdf.append(acc)
        cdf[-1] = 1.0
        cdfs.append(cdf)
    return cdfs


_CDFS = {}


def per_offspring_levels(n: int, mu: int, lam: int, variant, rng, fits) -> int:
    """Iterations until the count-of-ones population first holds the
    optimum, stepping the fitness-level chain one offspring at a time.

    Every iteration draws all lam offspring: each one's parent, then its
    popcount by inversion of that parent's transition cdf. Under plus and
    comma selection the parent is chosen uniformly from the mu members;
    under fair-parent selection offspring k's parent is member k.
    Comma-selection keeps the best mu of the offspring, the other two the
    best mu of parents and offspring.
    """
    key = (n, 1.0 / n)
    if key not in _CDFS:
        _CDFS[key] = _offspring_cdfs(n, 1.0 / n)
    cdfs = _CDFS[key]
    rr = rng.random
    comma = variant is Variant.COMMA
    fair = variant is Variant.FAIRPLUS
    fits = sorted(fits)
    t = 0
    while fits[-1] < n:
        offs = []
        for k in range(lam):
            parent = fits[k] if fair else fits[int(rr() * mu)]
            offs.append(bisect_right(cdfs[parent], rr()))
        pool = offs if comma else offs + fits
        pool.sort()
        fits = pool[-mu:]
        t += 1
    return t


def genotype_batch(config, f, replicates: int) -> list:
    """RunResults of `replicates` genotype runs of config on f, the reference
    for the fitness-level chain behind `ealab.run_batch`.

    Replicate r steps EvolutionState from seed mix64(config.seed, r), the
    seed run_batch gives it, under run's budget and stopping rule, and
    records change points by RunResult's rule.
    """
    budget = resolve_budget(config)
    results = []
    for r in range(replicates):
        es = EvolutionState(config, f, rng=random.Random(mix64(config.seed, r)))
        changes = []
        t = 0
        while True:
            best = es.best_fitness
            count = es.fits.count(best)
            if not changes or (best, count) != (changes[-2], changes[-1]):
                changes += (t, best, count)
            if best >= f.opt_threshold or t >= budget:
                break
            es.step()
            t += 1
        hit = best >= f.opt_threshold
        results.append(RunResult(t if hit else None, config.mu + config.lam * t, t,
                                 tuple(changes), hit))
    return results
