"""Order statistics under the ten-beyond rule.

A percentile is reported only when at least ten samples lie beyond it, so a
tail figure always rests on more than one or two outliers.  Every estimate
carries its sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Estimate:
    """A nearest-rank percentile and the samples it was taken from."""

    q: float
    value: float
    n: int
    beyond: int


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n))


def supported(q: float, n: int) -> bool:
    """True when at least :data:`MIN_BEYOND` of ``n`` samples lie beyond ``q``."""
    return n > 0 and n - rank(q, n) >= MIN_BEYOND


def min_samples(q: float) -> int:
    """Fewest samples for which :func:`supported` holds."""
    n = 1
    while not supported(q, n):
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> Estimate:
    """Nearest-rank ``q``-th percentile; raises if the sample cannot support it."""
    n = len(values)
    if not supported(q, n):
        raise ValueError(
            f"p{q:g} needs at least {min_samples(q)} samples "
            f"({MIN_BEYOND} beyond it); got {n}"
        )
    k = rank(q, n)
    return Estimate(q, float(sorted(values)[k - 1]), n, n - k)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (``statistics.quantiles`` n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
