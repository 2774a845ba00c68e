"""Order statistics used by the harness; standard library only."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples a reported percentile needs above it


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile, refused unless MIN_BEYOND samples lie above it.

    The nearest rank is ``ceil(q * n)`` (1-based), so p90 of 100 samples is
    the 90th smallest and has exactly 10 samples beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; {MIN_BEYOND} needed"
        )
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
