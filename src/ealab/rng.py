"""Deterministic seed derivation, exact binomial pmfs and the binomial generator.

All simulation code in this package draws randomness from stdlib
``random.Random`` instances seeded through :func:`mix64`, so that every
replicate, sweep cell, and probe is reproducible bit for bit regardless of
execution order or parallelism.

Every Binomial(n, p) variate in the package comes from :func:`binomial_draw`,
which keeps no table or cache and takes O(1) memory at any n, so a fresh
(n, p) on every draw costs no more than a repeated one. :func:`binomial_pmf`
is the exact law, which the fitness-level tables convolve.
"""

from __future__ import annotations

import math

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


#: binomial_pmf drops the upper tail once the mass left beyond it is below this
TAIL_MASS = 2.0 ** -60


def _check(n, p):
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")


def binomial_pmf(n, p) -> list:
    """Pr(X = k) for X ~ Binomial(n, p), indexed from k = 0.

    The pmf is evaluated in log space at the mode and extended outwards by
    the ratio recurrence, so no intermediate overflows at any n. Lower-tail
    entries that underflow are 0.0; the list stops once the upper tail left
    out has mass below TAIL_MASS.
    """
    _check(n, p)
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


def binomial_draw(rng, n: int, p: float) -> int:
    """One Binomial(n, p) variate from ``rng``, in O(1) memory at any n.

    p > 1/2 is reflected to n - Binomial(n, 1 - p). A mean n*p below 10 is
    drawn by sequential-search inversion (BINV: Kachitvichyanukul and
    Schmeiser, CACM 31(2), 1988), one uniform and O(1 + n*p) steps; a larger
    one by transformed rejection with squeeze (BTRS: Hoermann, J. Statist.
    Comput. Simul. 46, 1993), a bounded expected number of uniforms at any n.
    """
    if n < 0:                   # _check inlined: mutate_mask draws here per offspring
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return 0
    if p > 0.5:
        return n - binomial_draw(rng, n, 1.0 - p)
    if n * p >= 10.0:
        return _btrs(rng, n, p)
    # inversion: walk up the pmf from k = 0, taking pmf(k) off one uniform
    # until it is used up; pmf(k) / pmf(k - 1) = (n + 1) s / k - s
    r = math.exp(n * math.log1p(-p))
    u = rng.random()
    if u <= r:
        return 0                # k = 0 needs no pmf ratio
    s = p / (1.0 - p)
    a = (n + 1) * s
    k = 0
    while u > r:
        u -= r
        k += 1
        if k > 110:             # only rounding gets here (mean < 10): draw again
            return binomial_draw(rng, n, p)
        r *= a / k - s
    return k


def _btrs(rng, n, p):
    # n * p >= 10 and p <= 1/2, as the method requires
    random = rng.random
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = None
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue            # random() gave 0.0, where the hat has no mass
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random()
        if us >= 0.07 and v <= v_r:
            return k            # the squeeze: accepted without the pmf
        if alpha is None:
            alpha = (2.83 + 5.1 / b) * spq
            r = p / (1.0 - p)
            m = math.floor((n + 1) * p)
            top = _stirling_tail(m) + _stirling_tail(n - m)
        v *= alpha / (a / (us * us) + b)
        if v <= math.exp(top + _log_ratio(n, k, m, r)):
            return k


def _log_ratio(n, k, m, r):
    # log pmf(k)/pmf(m), less the Stirling tails of m and n - m; each term is
    # O(|k - m|) and comes from a log1p or a log near 1, so unlike a
    # difference of lgamma values it loses no precision at large n
    return (-(m + 0.5) * math.log1p((k - m) / (m + 1))
            - (n - m + 0.5) * math.log1p((m - k) / (n - m + 1))
            + (k - m) * math.log((n - k + 1) * r / (k + 1))
            - _stirling_tail(k) - _stirling_tail(n - k))


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(j):
    """log(j!) - [(j + 1/2) log(j + 1) - (j + 1) + log(2 pi)/2]."""
    if j < 10:
        return math.lgamma(j + 1) - (j + 0.5) * math.log(j + 1) + j + 1 - _HALF_LOG_2PI
    if j > 1e100:
        # the later terms are below a float's precision here, and the integer
        # 1260 (j + 1)^2 would overflow converting to a float
        return 1.0 / (12.0 * (j + 1))
    z2 = (j + 1) * (j + 1)
    return (1.0 / 12 - (1.0 / 360 - 1.0 / (1260 * z2)) / z2) / (j + 1)


# no ealab caller: bench/ constructs it and wraps its __init__ (ROADMAP item 7)
class BinomialSampler:
    """A Binomial(n, p) handle: (n, p) is checked once, and each draw is a
    binomial_draw, so it holds no table and is not a second sampler."""

    def __init__(self, n, p):
        _check(n, p)
        self.n = n
        self.p = p

    def draw(self, rng) -> int:
        return binomial_draw(rng, self.n, self.p)
