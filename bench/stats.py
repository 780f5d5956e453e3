"""Order statistics and timers for the benchmark (its own, not repro's)."""

from __future__ import annotations

import math
import time
from typing import Sequence

now = time.perf_counter


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it.  0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Middle sample (mean of the two middle ones for an even count)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly above the
    ``fraction`` percentile's rank."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(fraction * count))


def ms(seconds: float) -> float:
    return seconds * 1000.0
