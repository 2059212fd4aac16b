"""Order statistics the suite reports, and the run-to-run comparison.

Percentiles use linear interpolation between closest ranks (the same
rule as ``numpy.percentile``'s default), computed without numpy so the
comparison mode can run on result files alone.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# Candidate tails, highest first. A percentile is reportable only when
# at least ten samples lie beyond it (choosing-metrics, section 1).
_TAILS = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest percentile with >= 10 samples beyond."""
    for q in _TAILS:
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return 50.0, median(values)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of the positive entries (0.0 when there are none)."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The driver's steadiness rule: ``statistics.quantiles(values, n=4)``
    first to third quartile, divided by the median.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (<= 0: not worse)."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
