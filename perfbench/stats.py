"""Statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    """The mean of a run's repeated timings.  A shared host switches
    between speeds within a run; a median then takes one speed or the
    other, while a mean weighs each by the time spent at it, which keeps
    a run's figure steadier from run to run (``perfbench/METRICS.md``)."""
    if not values:
        raise ValueError("mean of no samples")
    return float(statistics.fmean(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  The value is the sorted sample
    at index ``n - beyond - 1``; its percentile is the share of samples
    at or below that index, so 200 samples give the 95th and 1000 give
    the 99th.  Fewer than ``beyond + 1`` samples support no tail.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples support no percentile with {beyond} beyond it")
    index = n - beyond - 1
    return float(sorted(values)[index]), 100.0 * (index + 1) / n, n
