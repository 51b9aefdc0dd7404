"""Summary statistics against numpy's mean, sample standard deviation and
linear-interpolation quantiles."""

import math
import random

import numpy as np
import pytest

from ealab import summarize


def _close(a, b, rel=1e-12):
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= rel * abs(b)


def _samples(kind, k, seed):
    rng = random.Random(seed)
    if kind == "spread":
        return [rng.randint(1, 10 ** 6) for _ in range(k)]
    if kind == "tied":
        return [rng.randint(1, 4) for _ in range(k)]
    return [17] * k                                   # all equal


@pytest.mark.parametrize("kind", ["spread", "tied", "equal"])
@pytest.mark.parametrize("k", [0, 1, 2, 10, 1000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_numpy(kind, k, seed):
    xs = _samples(kind, k, seed)
    s = summarize(xs, exhausted=4)
    assert (s.count, s.exhausted) == (k, 4)
    if k == 0:
        assert all(math.isnan(v) for v in (s.mean, s.stderr, s.median, s.q10, s.q90))
        return
    a = np.asarray(xs, dtype=float)
    se = float(a.std(ddof=1) / math.sqrt(k)) if k >= 2 else math.nan
    q10, median, q90 = (float(q) for q in np.quantile(a, [0.1, 0.5, 0.9]))
    assert _close(s.mean, float(a.mean()))
    assert _close(s.stderr, se)
    assert _close(s.median, median)
    assert _close(s.q10, q10)
    assert _close(s.q90, q90)


def test_accepts_any_iterable():
    assert summarize(iter([4, 2])) == summarize([2.0, 4.0])
