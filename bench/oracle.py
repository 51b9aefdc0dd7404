"""Reference values the benchmark checks ealab's outputs against.

Everything here is derived from first principles with the standard library
only and shares no code with ealab, so agreement is evidence rather than
circularity: closed-form bounds re-evaluated from their formulas, exact
absorbing-chain expectations, geometric means and exact binomial tails.
"""

from __future__ import annotations

import math

#: two-sided tail mass outside +-4 standard normal deviations, per side
TAIL_4SIGMA = 0.5 * math.erfc(4.0 / math.sqrt(2.0))


def log_plus(x: float) -> float:
    return max(1.0, math.log(x))


def master_bound(n: int, mu: int, lam: int) -> float:
    """n ln n / lam + n mu / lam + n log+log+(lam/mu) / log+(lam/mu)."""
    ratio = lam / mu
    return (n * math.log(n) / lam + n * mu / lam
            + n * log_plus(log_plus(ratio)) / log_plus(ratio))


def default_budget(n: int, mu: int, lam: int) -> int:
    """Iteration cap of ten master bounds, rounded up."""
    return math.ceil(10.0 * master_bound(n, mu, lam))


def takeover_bound_general(mu: int, lam: int, j1: int, j2: int) -> float:
    """(2e mu / lam)(ln(j2/j1) + 1) + (j2 - j1)."""
    return (2.0 * math.e * mu / lam) * (math.log(j2 / j1) + 1.0) + (j2 - j1)


def ea0_growth_lb(mu: int, lam: int, j1: int, j2: int) -> float:
    """ln(j2 / (2 j1)) / ln(1 + lam / (e mu))."""
    return math.log(j2 / (2.0 * j1)) / math.log(1.0 + lam / (math.e * mu))


def binomial_pmf(m: int, p: float, cut: float = 1e-22) -> list:
    """Binomial(m, p) probabilities by the ratio recurrence, dropping the
    upper tail once it falls below `cut` past the mean."""
    q = 1.0 - p
    if p == 0.0:
        return [1.0]
    pmf = [q ** m]
    ratio = p / q
    for k in range(m):
        nxt = pmf[-1] * (m - k) / (k + 1) * ratio
        if k + 1 > m * p and nxt < cut:
            break
        pmf.append(nxt)
    return pmf


def one_plus_one_mean(n: int) -> float:
    """Expected iterations of the elitist (1+1) process on OneMax with
    p = 1/n from a uniform random start.

    The number of ones is a Markov chain: a step from i ones moves to
    i + B - A with A ~ Bin(i, p) and B ~ Bin(n - i, p) and is accepted when
    it does not lose fitness. Expected hitting times follow by
    back-substitution from level n down.
    """
    p = 1.0 / n
    expected = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        lose = binomial_pmf(i, p)
        gain = binomial_pmf(n - i, p)
        up = {}
        for a, pa in enumerate(lose):
            for b in range(a + 1, len(gain)):
                up[b - a] = up.get(b - a, 0.0) + pa * gain[b]
        total = sum(up.values())
        expected[i] = (1.0 + sum(w * expected[i + d] for d, w in up.items())) / total
    return sum(math.comb(n, i) * expected[i] for i in range(n + 1)) / 2.0 ** n


def ea0_mean(n: int, mu: int, lam: int, j1: int, j2: int) -> float:
    """Expected iterations for the copy-only count chain to climb from j1 to
    j2: state j moves to min(mu, j + N), N ~ Bin(lam, j (1 - 1/n)^n / mu)."""
    q_copy = (1.0 - 1.0 / n) ** n
    expected = {j: 0.0 for j in range(j2, mu + 1)}
    for j in range(j2 - 1, j1 - 1, -1):
        pmf = binomial_pmf(lam, j * q_copy / mu, cut=0.0)
        acc = 1.0 + sum(pk * expected[min(mu, j + k)]
                        for k, pk in enumerate(pmf) if k >= 1)
        expected[j] = acc / (1.0 - pmf[0])
    return expected[j1]


def _reach(ones: int, zeros: int, delta: int, p: float) -> float:
    # P(gained ones - lost ones >= delta) for one standard-bit mutation
    lose = binomial_pmf(ones, p, cut=0.0)
    gain = binomial_pmf(zeros, p, cut=0.0)
    return sum(pa * pb for a, pa in enumerate(lose)
               for b, pb in enumerate(gain) if b - a >= delta)


def two_member_takeover_mean(n: int, i: int) -> float:
    """Mean takeover time of the (2+2) process from one member at fitness i
    and one at i - 1 until two members have fitness >= i.

    Each offspring succeeds with r = (P(fit parent keeps >= i) + P(filler
    gains >= 1)) / 2; a failed iteration leaves the same profile, so the
    time is geometric with success 1 - (1 - r)^2.
    """
    p = 1.0 / n
    r = 0.5 * (_reach(i, n - i, 0, p) + _reach(i - 1, n - i + 1, 1, p))
    return 1.0 / (1.0 - (1.0 - r) ** 2)


def level_leave_mean(n: int) -> float:
    """(1+1) from fitness n - 1: leaving needs exactly the one zero flipped,
    probability (1/n)(1 - 1/n)^(n-1) per iteration."""
    return 1.0 / ((1.0 / n) * (1.0 - 1.0 / n) ** (n - 1))


def exact_hit_rate(n: int, d: int) -> float:
    """P(one mutation at p = 1/n turns a string into one at Hamming
    distance d): flip those d bits and keep the other n - d."""
    return (1.0 / n) ** d * (1.0 - 1.0 / n) ** (n - d)


def binomial_within_4sigma(hits: int, samples: int, p: float) -> bool:
    """True when `hits` is no further in either tail of Bin(samples, p) than
    4 standard deviations of a normal variable, using exact tails (the
    normal approximation fails when samples * p is small)."""
    def log_pmf(k):
        return (math.lgamma(samples + 1) - math.lgamma(k + 1)
                - math.lgamma(samples - k + 1)
                + k * math.log(p) + (samples - k) * math.log1p(-p))

    below = math.fsum(math.exp(log_pmf(k)) for k in range(hits + 1))
    above = 1.0 - math.fsum(math.exp(log_pmf(k)) for k in range(hits))
    return below >= TAIL_4SIGMA and above >= TAIL_4SIGMA


def nodes_at_distance(t: int, lam: int, ell: int) -> int:
    """C(t, ell) lam^ell nodes at distance ell in the complete tree."""
    return math.comb(t, ell) * lam ** ell


def mean_se(xs) -> tuple:
    """Sample mean and standard error (ddof = 1)."""
    k = len(xs)
    mean = math.fsum(xs) / k
    var = math.fsum((x - mean) ** 2 for x in xs) / (k - 1)
    return mean, math.sqrt(var / k)
