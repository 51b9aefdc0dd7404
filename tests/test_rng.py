"""Binomial sampler tables: exact law, large n, and the tail cut."""

import random

import pytest
from scipy import stats as sps

from ealab.rng import TAIL_MASS, BinomialSampler, binomial_draw


def _max_cdf_error(n, p):
    cum = BinomialSampler(n, p)._cum
    ref = sps.binom.cdf(range(len(cum)), n, p)
    # the last entry is forced to 1.0 and stands for the cut tail too
    return max(abs(c - r) for c, r in zip(cum[:-1], ref[:-1])) if len(cum) > 1 else 0.0


class TestBinomialSampler:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 256])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
    def test_cdf_matches_scipy(self, n, p):
        assert _max_cdf_error(n, p) < 1e-13
        assert _max_cdf_error(n, 1.0 / n) < 1e-13

    @pytest.mark.parametrize("n", [1030, 5000, 10 ** 5])
    def test_large_n(self, n):
        # the table used to overflow a float from n = 1030 on
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
        cum = BinomialSampler(n, p)._cum
        assert len(cum) < n + 1
        assert sps.binom.sf(len(cum) - 1, n, p) < TAIL_MASS
        assert cum[-1] == 1.0
        assert all(a <= b for a, b in zip(cum, cum[1:]))

    def test_degenerate_p(self):
        assert BinomialSampler(5, 0.0)._cum == [1.0]
        assert BinomialSampler(5, 1.0)._cum == [0.0] * 5 + [1.0]
        assert BinomialSampler(0, 0.3)._cum == [1.0]
        rng = random.Random(0)
        assert BinomialSampler(5, 1.0).draw(rng) == 5
        assert BinomialSampler(5, 0.0).draw(rng) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialSampler(-1, 0.5)
        with pytest.raises(ValueError):
            BinomialSampler(5, 1.5)
