"""Bit-string genotypes, standard-bit mutation, and benchmark fitness functions.

The engines work on raw int masks: bit ``i`` of a mask is position ``i``.
:class:`BitString` wraps a mask with its length at the API boundary (the
target of :class:`UniqueOptGeneric`, the root and target strings of the
label-bound check) and is value-semantic.

Every mutation of a genotype is :func:`mutate_mask`, which returns a fresh
mask: a Binomial(n, p) number of flips at uniformly random distinct
positions, found by rejection. A string is optimal under a benchmark iff
``f.value(mask)`` reaches the benchmark's ``opt_threshold``, the rule every
engine stops on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import binomial_draw


class ConfigError(ValueError):
    """Raised on invalid configuration (dimension mismatch, bad parameters)."""


#: getrandbits takes its bit count as a C int
RANDOM_BITS_MAX = 2 ** 31 - 1


@dataclass(frozen=True)
class BitString:
    """Fixed-length sequence of n binary values.

    ``mask`` packs the bits little-endian: position i is ``(mask >> i) & 1``.
    Length is immutable; instances are hashable and comparable by value.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"length must be positive, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ConfigError("mask out of range for length n")

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        bits = list(bits)
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ConfigError(f"bit values must be 0 or 1, got {b!r}")
            mask |= b << i
        return cls(len(bits), mask)

    @classmethod
    def from_string(cls, s: str) -> "BitString":
        return cls.from_bits(int(ch) for ch in s)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(n, (1 << n) - 1)

    @classmethod
    def random(cls, n: int, rng) -> "BitString":
        if n < 1:
            raise ConfigError(f"length must be positive, got {n}")
        if n > RANDOM_BITS_MAX:
            raise ConfigError(f"a random string needs n <= {RANDOM_BITS_MAX}, "
                              "the most bits random.getrandbits draws")
        return cls(n, rng.getrandbits(n))

    def popcount(self) -> int:
        return self.mask.bit_count()

    def hamming(self, other: "BitString") -> int:
        if self.n != other.n:
            raise ConfigError("length mismatch in Hamming distance")
        return (self.mask ^ other.mask).bit_count()

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.mask >> i) & 1

    def __iter__(self):
        m = self.mask
        for _ in range(self.n):
            yield m & 1
            m >>= 1

    def __str__(self) -> str:
        return "".join(str(b) for b in self)


class OneMax:
    """Fitness = number of one-bits; unique optimum is the all-ones string."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigError("n must be positive")
        self.n = n
        # any member with fitness >= this threshold is optimal
        self.opt_threshold = n

    def value(self, mask: int) -> int:
        return mask.bit_count()

    def __repr__(self):
        return f"OneMax(n={self.n})"


class MultiOptOneMax:
    """OneMax fitness where every string with at most k zeros counts as optimal.

    Declares exactly sum_{j<=k} C(n, j) optima.
    """

    def __init__(self, n: int, k: int):
        if n < 1:
            raise ConfigError("n must be positive")
        if not 0 <= k <= n:
            raise ConfigError("k must be in [0, n]")
        self.n = n
        self.k = k
        self.opt_threshold = n - k

    def value(self, mask: int) -> int:
        return mask.bit_count()

    def __repr__(self):
        return f"MultiOptOneMax(n={self.n}, k={self.k})"


class UniqueOptGeneric:
    """Fitness = n minus Hamming distance to a fixed target; one optimum."""

    def __init__(self, target: BitString):
        self.n = target.n
        self.target = target
        self._tmask = target.mask
        self.opt_threshold = target.n

    def value(self, mask: int) -> int:
        return self.n - (mask ^ self._tmask).bit_count()

    def __repr__(self):
        return f"UniqueOptGeneric(n={self.n})"


def flip_mask(rng, n: int, k: int) -> int:
    """XOR mask of k distinct positions drawn uniformly from range(n).

    Each position is a randrange(n) draw, redrawn while its bit is already
    set. When 2k > n the n - k positions left alone are drawn instead and the
    mask is complemented, so k == n draws nothing.
    """
    flip = 2 * k <= n
    randrange = rng.randrange
    m = 0
    for _ in range(k if flip else n - k):
        bit = 1 << randrange(n)
        while m & bit:
            bit = 1 << randrange(n)
        m |= bit
    return m if flip else m ^ ((1 << n) - 1)


def mutate_mask(mask: int, n: int, p: float, rng) -> int:
    """Standard-bit mutation on a raw mask: each bit flips independently
    with probability p.

    Implemented as a Binomial(n, p) flip count followed by a uniform random
    subset of positions, which has exactly the same distribution.
    """
    k = binomial_draw(rng, n, p)
    return mask ^ flip_mask(rng, n, k) if k else mask


def make_fitness(kind: str, n: int, k: int | None = None,
                 target: BitString | None = None):
    """Build a fitness function by kind name ('onemax', 'multiopt', 'uniqueopt')."""
    kind = kind.lower()
    if kind == "onemax":
        return OneMax(n)
    if kind == "multiopt":
        if k is None:
            raise ConfigError("multiopt needs k (max zero-count counted optimal)")
        return MultiOptOneMax(n, k)
    if kind == "uniqueopt":
        if target is None:
            raise ConfigError("uniqueopt needs a target string")
        if target.n != n:
            raise ConfigError("target length does not match n")
        return UniqueOptGeneric(target)
    raise ConfigError(f"unknown fitness kind {kind!r}")
