"""The Harrell-Davis quantile estimator, in the standard library only.

A percentile read off one order statistic (the nearest rank) jumps when
noise swaps two neighbouring values across a gap.  On ``audit-small`` the
99th percentile of 1600 instance times sat between instances of 57, 63 and
71 ms, and the nearest rank spread 0.07-0.14 of its median between runs.
The Harrell-Davis estimate (Biometrika 69, 1982) is a weighted mean of all
order statistics, with the weights a Beta((n+1)q, (n+1)(1-q)) distribution
puts on the intervals [(i-1)/n, i/n]; on the same runs it spread 0.03.
"""

from __future__ import annotations

import math

_TINY = 1e-300


def _continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _continued_fraction(a, b, x) / a
    return 1.0 - front * _continued_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile of ``values``."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))
