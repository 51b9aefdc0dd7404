"""Genotypes, benchmarks, and the mutation operator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ealab import (BitString, ConfigError, MultiOptOneMax, OneMax,
                   UniqueOptGeneric, evaluate, is_optimal, make_fitness,
                   mutate)
from ealab.genotype import flip_mask

import oracles


class TestBitString:
    def test_from_string_round_trip(self):
        s = "10110"
        x = BitString.from_string(s)
        assert str(x) == s
        assert len(x) == 5
        assert x.popcount() == 3

    def test_bits_indexing(self):
        x = BitString.from_string("10110")
        assert list(x) == [1, 0, 1, 1, 0]
        assert x[0] == 1 and x[1] == 0 and x[4] == 0

    def test_zeros_ones(self):
        assert BitString.zeros(6).popcount() == 0
        assert BitString.ones(6).popcount() == 6

    def test_random_respects_length(self):
        rng = random.Random(0)
        for _ in range(50):
            x = BitString.random(12, rng)
            assert len(x) == 12
            assert 0 <= x.mask < (1 << 12)

    def test_hamming(self):
        a = BitString.from_string("1100")
        b = BitString.from_string("1010")
        assert a.hamming(b) == 2
        assert a.hamming(a) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            BitString(0, 0)
        with pytest.raises(ConfigError):
            BitString(3, 8)  # mask needs 4 bits
        with pytest.raises(ConfigError):
            BitString(3, -1)
        with pytest.raises(ConfigError):
            BitString.from_string("10201")


class TestBenchmarks:
    def test_onemax_all_zero(self):
        assert evaluate(OneMax(5), BitString.from_string("00000")) == 0

    def test_onemax_direct_count(self):
        assert evaluate(OneMax(5), BitString.from_string("10110")) == 3

    def test_onemax_against_independent_popcount(self):
        rng = random.Random(123)
        f = OneMax(64)
        for _ in range(1000):
            x = BitString.random(64, rng)
            assert evaluate(f, x) == oracles.popcount_slow(x.mask)

    def test_onemax_unique_optimum(self):
        f = OneMax(6)
        assert is_optimal(f, BitString.ones(6))
        optima = [m for m in range(1 << 6) if is_optimal(f, BitString(6, m))]
        assert optima == [(1 << 6) - 1]

    def test_multiopt_boundary(self):
        f = MultiOptOneMax(8, k=2)
        assert is_optimal(f, BitString.from_string("11111100"))
        assert not is_optimal(f, BitString.from_string("11111000"))

    def test_multiopt_census(self):
        # strings with <= k zeros: sum of C(n, j) for j <= k
        for n, k in ((10, 2), (14, 3)):
            f = MultiOptOneMax(n, k=k)
            count = sum(1 for m in range(1 << n) if is_optimal(f, BitString(n, m)))
            assert count == sum(math.comb(n, j) for j in range(k + 1))

    def test_uniqueopt_generic(self):
        target = BitString.from_string("0110")
        f = UniqueOptGeneric(target)
        assert is_optimal(f, target)
        assert evaluate(f, target) == 4
        assert evaluate(f, BitString.from_string("1001")) == 0
        optima = [m for m in range(1 << 4) if is_optimal(f, BitString(4, m))]
        assert optima == [target.mask]

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            evaluate(OneMax(5), BitString.zeros(6))

    def test_make_fitness(self):
        assert isinstance(make_fitness("onemax", 8), OneMax)
        assert isinstance(make_fitness("multiopt", 8, k=2), MultiOptOneMax)
        with pytest.raises(ConfigError):
            make_fitness("multiopt", 8)
        with pytest.raises(ConfigError):
            make_fitness("uniqueopt", 8)
        with pytest.raises(ConfigError):
            make_fitness("nope", 8)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_onemax_permutation_invariant(self, n, data):
        mask = data.draw(st.integers(0, (1 << n) - 1))
        perm = data.draw(st.permutations(range(n)))
        bits = [(mask >> i) & 1 for i in range(n)]
        shuffled = sum(bits[perm[i]] << i for i in range(n))
        f = OneMax(n)
        assert f.value(mask) == f.value(shuffled)


class TestMutation:
    def test_p_zero_identity(self):
        rng = random.Random(7)
        x = BitString.random(40, rng)
        for _ in range(20):
            assert mutate(x, 0.0, rng).mask == x.mask

    def test_p_one_complement(self):
        rng = random.Random(8)
        x = BitString.random(40, rng)
        full = (1 << 40) - 1
        for _ in range(20):
            assert mutate(x, 1.0, rng).mask == x.mask ^ full

    def test_p_validation(self):
        rng = random.Random(9)
        x = BitString.zeros(4)
        with pytest.raises(ConfigError):
            mutate(x, -0.1, rng)
        with pytest.raises(ConfigError):
            mutate(x, 1.1, rng)

    def test_mean_hamming_distance(self):
        # Binomial(n, 1/n) has mean 1; 10^5 draws put 3 sigma well inside 0.05
        n, samples = 100, 10 ** 5
        rng = random.Random(10)
        x = BitString.zeros(n)
        total = sum(x.hamming(mutate(x, 1.0 / n, rng)) for _ in range(samples))
        assert abs(total / samples - 1.0) < 0.05

    def test_flip_count_distribution_chi_square(self):
        # goodness of fit of the flip-count law against Binomial(n, p)
        n, p, samples = 20, 0.15, 20000
        rng = random.Random(11)
        x = BitString.zeros(n)
        observed = [0] * (n + 1)
        for _ in range(samples):
            observed[x.hamming(mutate(x, p, rng))] += 1
        expected = [samples * float(sps.binom.pmf(k, n, p)) for k in range(n + 1)]
        obs_pooled, exp_pooled = oracles.pool_cells(observed, expected)
        result = sps.chisquare(obs_pooled, f_exp=exp_pooled)
        assert result.pvalue > 1e-3

    # every k from 0 to n: both sides of the complement branch at 2k > n
    @pytest.mark.parametrize("n", [1, 2, 10, 21, 22, 50, 85, 86, 256, 1000])
    def test_flip_mask_sets_k_bits(self, n):
        rng = random.Random(n)
        for k in range(n + 1):
            m = flip_mask(rng, n, k)
            assert 0 <= m < (1 << n)
            assert m.bit_count() == k, (n, k)

    @pytest.mark.parametrize("k", range(7))
    def test_flip_mask_subsets_uniform(self, k):
        # every k-subset of 6 positions equally likely; k > 3 draws the
        # positions left alone and complements them
        n, samples = 6, 20000
        rng = random.Random(100 + k)
        counts = {}
        for _ in range(samples):
            m = flip_mask(rng, n, k)
            counts[m] = counts.get(m, 0) + 1
        subsets = math.comb(n, k)
        assert len(counts) == subsets
        assert all(m.bit_count() == k for m in counts)
        if subsets > 1:
            result = sps.chisquare(list(counts.values()))
            assert result.pvalue >= 1e-3, (k, result.pvalue)

    @pytest.mark.parametrize("n", [1, 10, 300])
    def test_flip_mask_full_draws_nothing(self, n):
        rng = random.Random(n)
        state = rng.getstate()
        assert flip_mask(rng, n, n) == (1 << n) - 1
        assert rng.getstate() == state

    @given(st.integers(2, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 30))
    @settings(max_examples=80, deadline=None)
    def test_mutation_preserves_length(self, n, p, seed):
        rng = random.Random(seed)
        x = BitString.random(n, rng)
        y = mutate(x, p, rng)
        assert len(y) == n
        assert 0 <= y.mask < (1 << n)
