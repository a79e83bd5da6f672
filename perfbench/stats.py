"""Summary statistics with the sample-count rule the benchmark reports by."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the q-th percentile has `min_beyond` above it.

    p50 needs 20 samples and p95 needs 200.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(round(min_beyond * 100 / (100 - q), 9))


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile; raises ValueError on too few samples."""
    n = len(samples)
    need = min_samples(q, min_beyond)
    if n < need:
        raise ValueError(
            f"p{q:g} needs at least {need} samples, got {n}")
    rank = math.ceil(round(q * n / 100, 9))
    return sorted(samples)[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
