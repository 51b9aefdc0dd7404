"""Deterministic seed derivation and fast binomial sampling.

All simulation code in this package draws randomness from stdlib
``random.Random`` instances seeded through :func:`mix64`, so that every
replicate, sweep cell, and probe is reproducible bit for bit regardless of
execution order or parallelism.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(a: int, b: int) -> int:
    """Derive a child seed from a parent seed ``a`` and a stream index ``b``.

    This is the SplitMix64 construction: the state ``a + GOLDEN*(b+1)``
    (mod 2^64) pushed through the SplitMix64 output finalizer. Fixed once;
    changing it would silently change every derived experiment.
    """
    z = (a + _GOLDEN * (b + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


#: the upper tail is dropped once the mass left beyond the table is below this
TAIL_MASS = 2.0 ** -60


def binomial_pmf(n, p) -> list:
    """Pr(X = k) for X ~ Binomial(n, p), indexed from k = 0.

    The pmf is evaluated in log space at the mode and extended outwards by
    the ratio recurrence, so no intermediate overflows at any n. Lower-tail
    entries that underflow are 0.0; the list stops once the upper tail left
    out has mass below TAIL_MASS.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return [1.0]
    if p == 1.0:
        return [0.0] * n + [1.0]
    r = p / (1.0 - p)
    mode = min(n, int((n + 1) * p))
    # log C(n, mode) as a sum of small logs; the lgamma form would lose an
    # ulp of lgamma(n + 1) to cancellation, a relative 4e-10 at n = 10^5
    log_comb = math.fsum(math.log((n - i) / (i + 1)) for i in range(mode))
    top = math.exp(log_comb + mode * math.log(p) + (n - mode) * math.log1p(-p))
    pmf = [0.0] * (mode + 1)
    pmf[mode] = term = top
    for k in range(mode, 0, -1):
        term *= k / ((n - k + 1) * r)
        if term == 0.0:
            break
        pmf[k - 1] = term
    term = top
    for k in range(mode, n):
        # past the mode the ratio pmf(k+1)/pmf(k) only falls, so the mass
        # beyond k is at most term * ratio / (1 - ratio)
        ratio = (n - k) / (k + 1) * r
        if ratio < 1.0 and term * ratio < TAIL_MASS * (1.0 - ratio):
            break
        term *= ratio
        pmf.append(term)
    return pmf


def cdf(pmf, total=1.0) -> list:
    """Running sums of pmf / total, the last entry forced to 1.0 so that
    bisect_right(cdf, U) for a uniform U in [0, 1) always lands in range."""
    # rounding can carry the running sum a hair past 1.0 before the end
    cum = [min(c / total, 1.0) for c in accumulate(pmf)]
    cum[-1] = 1.0
    return cum


class BinomialSampler:
    """Inverse-CDF sampler for Binomial(n, p), built once and reused.

    ``_cum[k]`` is Pr(X <= k), indexed from k = 0: the cdf of binomial_pmf,
    whose last entry is 1.0 so a uniform draw can never fall off the end.
    """

    def __init__(self, n, p):
        self._cum = cdf(binomial_pmf(n, p))
        self.n = n
        self.p = p

    def draw(self, rng) -> int:
        return bisect_right(self._cum, rng.random())


@lru_cache(maxsize=256)
def _sampler(n: int, p: float) -> BinomialSampler:
    return BinomialSampler(n, p)


def binomial_draw(rng, n: int, p: float) -> int:
    """One Binomial(n, p) variate from ``rng``; tables cached per (n, p)."""
    return _sampler(n, p).draw(rng)
