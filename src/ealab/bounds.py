"""Closed-form evaluators for the runtime, takeover and level bounds.

Everything here is an exact evaluation of a formula, reported as a plain real
with no hidden constants. Natural logarithms are used throughout; log+ is the
regularized logarithm max{1, ln x}. Asymptotic claims are never asserted as
equalities anywhere in this package, only as ratio-stability properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .genotype import ConfigError

#: threshold on lambda/mu separating the two analysis regimes
FAST_REGIME = math.e ** math.e

_2E = 2.0 * math.e


def log_plus(x: float) -> float:
    """max{1, ln x} for x > 0."""
    if x <= 0.0:
        raise ConfigError(f"log_plus needs a positive argument, got {x}")
    return max(1.0, math.log(x))


@dataclass(frozen=True)
class BoundReport:
    """The three master-bound terms and their sum for given (n, mu, lam)."""

    n: int
    mu: int
    lam: int
    term_coupon: float   # n ln(n) / lambda
    term_pop: float      # n mu / lambda
    term_fast: float     # n log+log+(lambda/mu) / log+(lambda/mu)
    total: float
    regime: str          # "General" or "FastLambda"


def _ratio(lam: int, mu: int) -> float:
    """lam / mu as a float; ConfigError where it is past the float range."""
    try:
        return lam / mu
    except OverflowError:
        raise ConfigError("lambda/mu is past the float range") from None


def master_bound(n: int, mu: int, lam: int) -> BoundReport:
    """Evaluate the master runtime bound expression at (n, mu, lam).

    Returns the three additive terms and their sum, in iterations.
    """
    if n < 2:
        raise ConfigError("master bound needs n >= 2")
    if mu < 1 or lam < 1:
        raise ConfigError("mu and lambda must be >= 1")
    ratio = _ratio(lam, mu)
    try:
        term_coupon = n * math.log(n) / lam
        term_pop = n * mu / lam
        term_fast = n * log_plus(log_plus(ratio)) / log_plus(ratio)
    except OverflowError:
        raise ConfigError("n, mu and lambda must lie within the float range") from None
    regime = "FastLambda" if ratio >= FAST_REGIME else "General"
    return BoundReport(n, mu, lam, term_coupon, term_pop, term_fast,
                       term_coupon + term_pop + term_fast, regime)


@dataclass(frozen=True)
class PhaseParams:
    """Fitness-gain step gamma and the phase boundary levels b1 < b2 < b3."""

    gamma: int
    b1: float   # n - n/ln(lambda/mu)
    b2: float   # n - mu n/lambda
    b3: float   # n - n/lambda


def phase_params(n: int, mu: int, lam: int) -> PhaseParams:
    """Phase parameters; defined for lambda/mu >= e^e (gamma >= 1 there)."""
    ratio = _ratio(lam, mu)
    if ratio < FAST_REGIME:
        raise ConfigError("phase parameters need lambda/mu >= e^e")
    log_ratio = math.log(ratio)
    gamma = math.floor(log_ratio / (2.0 * math.log(log_ratio)))
    return PhaseParams(gamma,
                       n - n / log_ratio,
                       n - mu * n / lam,
                       n - n / lam)


def _check_counts(mu, j1, j2):
    if not (1 <= j1 < j2 <= mu):
        raise ConfigError(f"need 1 <= j1 < j2 <= mu, got j1={j1}, j2={j2}, mu={mu}")


def takeover_bound_general(mu: int, lam: int, j1: int, j2: int) -> float:
    """Expected-takeover upper bound (2e mu/lam)(ln(j2/j1) + 1) + (j2 - j1)."""
    _check_counts(mu, j1, j2)
    if lam < 1:
        raise ConfigError("lambda must be >= 1")
    return (_2E * mu / lam) * (math.log(j2 / j1) + 1.0) + (j2 - j1)


def takeover_bound_fast(mu: int, lam: int, j1: int, j2: int) -> float:
    """High-selection-pressure takeover bound 4 ln(j2/j1)/ln(lam/(2e mu)) + 4.

    Only valid for lambda/mu >= e^e.
    """
    _check_counts(mu, j1, j2)
    if lam / mu < FAST_REGIME:
        raise ConfigError("fast takeover bound needs lambda/mu >= e^e")
    return 4.0 * math.log(j2 / j1) / math.log(lam / (_2E * mu)) + 4.0


def ea0_growth_lb(mu: int, lam: int, j1: int, j2: int) -> float:
    """Growth floor ln(j2/(2 j1)) / ln(1 + lam/(e mu)) on expected takeover.

    The fit count grows by at most a factor 1 + lam/(e mu) per iteration in
    expectation, so the copy-only process needs at least this many iterations
    on average to climb from j1 to j2 fit members.
    """
    _check_counts(mu, j1, j2)
    if lam < 1:
        raise ConfigError("lambda must be >= 1")
    # lam/mu first: e * mu overflows where mu is near the float range
    return math.log(j2 / (2.0 * j1)) / math.log1p(_ratio(lam, mu) / math.e)


def level_bound_general(n: int, mu: int, lam: int, i: int, mu0: int) -> float:
    """Level-leaving bound mu0 + (2e mu/lam)(ln mu0 + 1) + e mu n/(lam (n-i) mu0)."""
    if not 0 <= i <= n - 1:
        raise ConfigError(f"need 0 <= i <= n-1, got i={i}, n={n}")
    if not 1 <= mu0 <= mu:
        raise ConfigError(f"need 1 <= mu0 <= mu, got mu0={mu0}, mu={mu}")
    return (mu0
            + (_2E * mu / lam) * (math.log(mu0) + 1.0)
            + math.e * mu * n / (lam * (n - i) * mu0))


def level_bound_fast(n: int, mu: int, lam: int, i: int, mu0: int) -> float:
    """Level-leaving bound 4 ln(mu0)/ln(lam/(2e mu)) + e mu n/(lam (n-i) mu0) + 5.

    Only valid for lambda/mu strictly above e^e.
    """
    if not 0 <= i <= n - 1:
        raise ConfigError(f"need 0 <= i <= n-1, got i={i}, n={n}")
    if not 1 <= mu0 <= mu:
        raise ConfigError(f"need 1 <= mu0 <= mu, got mu0={mu0}, mu={mu}")
    if lam / mu <= FAST_REGIME:
        raise ConfigError("fast level bound needs lambda/mu > e^e")
    return (4.0 * math.log(mu0) / math.log(lam / (_2E * mu))
            + math.e * mu * n / (lam * (n - i) * mu0)
            + 5.0)


def min_level_bound_general(n, mu, lam, i):
    """(best mu0 in [1..mu], minimal general level bound), in O(1).

    In a real mu0 = m the bound is m + a(ln m + 1) + b/m with a = 2e mu/lam
    and b = e mu n/(lam (n - i)). Its slope has the sign of m^2 + a m - b, so
    it falls up to the one root m* = 2b / (a + sqrt(a^2 + 4b)) and rises
    after it: the best integer is floor(m*) or ceil(m*), each clamped to
    [1, mu], and floor wins a tie, as the first of a scan would. The root is
    taken through hypot, since squaring a overflows from mu/lam ~ 2.5e153.
    """
    if not 0 <= i <= n - 1:
        raise ConfigError(f"need 0 <= i <= n-1, got i={i}, n={n}")
    try:
        a = _2E * mu / lam
        b = math.e * mu * n / (lam * (n - i))
        root = 2.0 * b / (a + math.hypot(a, 2.0 * math.sqrt(b)))
    except OverflowError:
        raise ConfigError("n, mu and lambda must lie within the float range") from None
    best = min((min(max(m, 1), mu) for m in (math.floor(root), math.ceil(root))),
               key=lambda m0: level_bound_general(n, mu, lam, i, m0))
    return best, level_bound_general(n, mu, lam, i, best)


def _ceil_log5(m: int) -> int:
    # exact integer ceil(log5 m); floating log misrounds at exact powers
    if m <= 1:
        return 0
    k, power = 0, 1
    while power < m:
        power *= 5
        k += 1
    return k


def sudholt_bound(mu: int, lam: int) -> float:
    """Comparison takeover bound ceil(log5 mu) * (32/(1-1/e) * mu/lam + 1)."""
    if mu < 1 or lam < 1:
        raise ConfigError("mu and lambda must be >= 1")
    return _ceil_log5(mu) * (32.0 / (1.0 - 1.0 / math.e) * mu / lam + 1.0)
