"""The binomial generator's law, and the exact pmf the level tables convolve."""

import math
import random
from itertools import accumulate

import pytest
from scipy import stats as sps

from ealab.rng import TAIL_MASS, BinomialSampler, binomial_draw, binomial_pmf

import oracles


def _max_cdf_error(n, p):
    cum = list(accumulate(binomial_pmf(n, p)))
    ref = sps.binom.cdf(range(len(cum)), n, p)
    # the last entry also stands for the cut tail
    return max(abs(c - r) for c, r in zip(cum[:-1], ref[:-1])) if len(cum) > 1 else 0.0


class TestBinomialSampler:
    # the exact pmf, and the degenerate cases and errors of the generator

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 256])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
    def test_cdf_matches_scipy(self, n, p):
        assert _max_cdf_error(n, p) < 1e-13
        assert _max_cdf_error(n, 1.0 / n) < 1e-13

    @pytest.mark.parametrize("n", [1030, 5000, 10 ** 5])
    def test_large_n(self, n):
        # the pmf used to overflow a float from n = 1030 on
        # scipy's own cdf is off by about 1e-12 at n = 10^5, p = 3/n
        for p in (1.0 / n, 3.0 / n):
            assert _max_cdf_error(n, p) < 1e-11
        assert _max_cdf_error(n, 0.3) < 1e-9
        rng = random.Random(n)
        draws = [binomial_draw(rng, n, 1.0 / n) for _ in range(2000)]
        assert all(0 <= k <= n for k in draws)
        assert abs(sum(draws) / len(draws) - 1.0) < 0.15

    @pytest.mark.parametrize("n, p", [(256, 1 / 256), (1000, 0.02), (5000, 0.5)])
    def test_tail_cut_below_tail_mass(self, n, p):
        pmf = binomial_pmf(n, p)
        cum = list(accumulate(pmf))
        assert len(cum) < n + 1
        assert sps.binom.sf(len(cum) - 1, n, p) < TAIL_MASS
        assert abs(cum[-1] - 1.0) < 1e-9
        assert all(x >= 0.0 for x in pmf)

    def test_degenerate_p(self):
        assert binomial_pmf(5, 0.0) == [1.0]
        assert binomial_pmf(5, 1.0) == [0.0] * 5 + [1.0]
        assert binomial_pmf(0, 0.3) == [1.0]
        rng = random.Random(0)
        for draw in (lambda n, p: binomial_draw(rng, n, p),
                     lambda n, p: BinomialSampler(n, p).draw(rng)):
            for _ in range(20):
                assert draw(5, 1.0) == 5
                assert draw(5, 0.0) == 0
                assert draw(0, 0.3) == 0
                assert draw(0, 1.0) == 0

    def test_validation(self):
        for n, p in [(-1, 0.5), (5, 1.5), (5, -0.1), (5, math.nan)]:
            with pytest.raises(ValueError):
                BinomialSampler(n, p)
            with pytest.raises(ValueError):
                binomial_draw(random.Random(0), n, p)


# (n, p, seed): inversion below a mean of 10, BTRS from 10 on, reflection past 1/2
LAW_CASES = [
    (1, 0.3, 11), (50, 1 / 50, 12), (19, 0.5, 13), (256, 1 / 256, 14),
    (10 ** 5, 5e-5, 15),
    (21, 0.5, 21), (1000, 0.3, 22), (10 ** 5, 3e-4, 23), (200, 0.06, 24),
    (256, 0.97, 31), (40, 0.99, 32), (1000, 0.7, 33),
]


class TestBinomialDraw:
    @pytest.mark.parametrize("n, p, seed", LAW_CASES)
    def test_law_chi_square(self, n, p, seed):
        draws = 20000
        rng = random.Random(seed)
        top = min(n, int(sps.binom.isf(1e-12, n, p)) + 1)
        observed = [0] * (top + 1)
        total = 0
        for _ in range(draws):
            k = binomial_draw(rng, n, p)
            assert 0 <= k <= n
            observed[min(k, top)] += 1
            total += k
        # a location shift too small for the pooled cells still moves the mean
        assert abs(total / draws - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p) / draws)
        expected = [draws * q for q in sps.binom.pmf(range(top + 1), n, p)]
        expected[-1] += draws * sps.binom.sf(top, n, p)
        obs, exp = oracles.pool_cells(observed, expected)
        assert sps.chisquare(obs, exp).pvalue >= 1e-3

    @pytest.mark.parametrize("p, seed", [(0.25, 41), (1e-8, 42)])
    def test_huge_n_mean(self, p, seed):
        big, draws = 10 ** 9, 2000
        rng = random.Random(seed)
        sample = [binomial_draw(rng, big, p) for _ in range(draws)]
        se = math.sqrt(big * p * (1.0 - p) / draws)
        assert abs(sum(sample) / draws - big * p) <= 4.0 * se

    def test_n_near_float_range(self):
        # the rejection step's Stirling tails at j ~ 1e308 used to square j
        # as an integer and overflow converting it to a float
        big, draws = 10 ** 308, 2000
        rng = random.Random(43)
        sample = [binomial_draw(rng, big, 0.3) / big for _ in range(draws)]
        assert all(0.0 <= x <= 1.0 for x in sample)
        assert abs(sum(sample) / draws - 0.3) <= 1e-9

    def test_handle_draws_through_binomial_draw(self):
        a, b = random.Random(3), random.Random(3)
        sampler = BinomialSampler(300, 0.2)
        assert [sampler.draw(a) for _ in range(50)] == \
            [binomial_draw(b, 300, 0.2) for _ in range(50)]
