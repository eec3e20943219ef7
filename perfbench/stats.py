"""Order statistics shared by the workload process and ``run.py``.

Timings are reported as a median plus a tail: the highest whole percentile
that still has at least ten samples above it (nearest-rank definition), so
the tail never rests on a handful of outliers.  With fewer than twenty
samples that percentile would fall below the median; the tail is then the
median itself, and the printed report says so.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least :data:`TAIL_BEYOND` of ``n``
    samples strictly above its nearest-rank position (never below 50)."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(50, min(99, math.floor(100 * (1 - TAIL_BEYOND / n))))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the ``ceil(pct/100 * n)``-th smallest."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("need at least one sample")
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def latency_summary(values) -> dict:
    """Median, tail percentile and sample count of a latency list."""
    values = list(values)
    pct = tail_percentile(len(values))
    return {"p50": statistics.median(values), "tail": percentile(values, pct),
            "tail_pct": pct, "samples": len(values)}

