"""Order statistics shared by the workloads."""

from __future__ import annotations

import math
import statistics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float], q: float) -> float:
    """The nearest-rank *q*-th percentile, if ten samples lie beyond it.

    With fewer samples no percentile is trustworthy, and the maximum is
    reported instead (the batch workload makes a few passes a run).
    """
    ordered = sorted(values)
    beyond = len(ordered) * (100 - q) / 100
    if beyond < 10:
        return ordered[-1]
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]
