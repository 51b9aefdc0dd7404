"""Summary statistics shared by the takeover lab and the sweep harness.

No distributional assumptions: runtimes are heavy-tailed at small lambda, so
the summary keeps mean, standard error, median, and the 10/90 quantiles side
by side. Budget-exhausted samples are censored: counted, never averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SampleStats:
    """Mean, standard error, and empirical quantiles of completed samples.

    `count` covers completed samples only; `exhausted` counts censored runs.
    stderr is NaN for fewer than two samples. The q-quantile of k sorted
    samples interpolates linearly between the two order statistics around
    index h = (k - 1) * q (0-based).
    """

    count: int
    mean: float
    stderr: float
    median: float
    q10: float
    q90: float
    exhausted: int = 0


def _quantile(xs, q: float) -> float:
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def summarize(samples, exhausted: int = 0) -> SampleStats:
    xs = sorted(map(float, samples))
    k = len(xs)
    if k == 0:
        nan = float("nan")
        return SampleStats(0, nan, nan, nan, nan, nan, exhausted)
    mean = math.fsum(xs) / k
    if k >= 2:
        stderr = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (k - 1) / k)
    else:
        stderr = float("nan")
    q10, median, q90 = (_quantile(xs, q) for q in (0.1, 0.5, 0.9))
    return SampleStats(k, mean, stderr, median, q10, q90, exhausted)
