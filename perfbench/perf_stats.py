"""Exact order statistics over raw samples.

Percentiles here come from the sorted samples themselves (nearest rank),
never from fixed histogram buckets, and each one carries the sample count
it was computed from.  A percentile is only reported when at least
``MIN_BEYOND`` samples lie above it, so a tail figure is never read off
a handful of points.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: Percentiles :func:`latency_summary` considers, in increasing order.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank, ceil(pct/100 * count), in integer arithmetic
    so 99.9% of 10000 is exactly 9990."""
    milli = round(pct * 1000)
    return max(1, -(-milli * count // 100_000))


def nearest_rank(ordered: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile of already-sorted samples (nearest rank):
    the smallest sample with at least ``pct`` percent of the samples at
    or below it.  ``None`` for no samples."""
    if not ordered:
        return None
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must be in (0, 100], got %r" % pct)
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    if count <= 0:
        return 0
    return count - _rank(count, pct)


def supported(count: int, pct: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``count`` samples support reporting the ``pct`` percentile."""
    return beyond(count, pct) >= min_beyond


def latency_summary(samples: Iterable[float],
                    percentiles: Sequence[float] = PERCENTILES,
                    min_beyond: int = MIN_BEYOND) -> Dict[str, Dict[str, float]]:
    """Every supported percentile of ``samples`` as
    ``{"p50": {"pct": 50.0, "value": v, "samples": n, "beyond": k}, ...}``.

    Percentiles with fewer than ``min_beyond`` samples above them are
    left out rather than reported from too little data."""
    ordered: List[float] = sorted(samples)
    count = len(ordered)
    out: Dict[str, Dict[str, float]] = {}
    for pct in percentiles:
        if not supported(count, pct, min_beyond):
            continue
        label = "p%g" % pct
        out[label.replace(".", "")] = {
            "pct": pct,
            "value": nearest_rank(ordered, pct),
            "samples": count,
            "beyond": beyond(count, pct),
        }
    return out


def tail(summary: Dict[str, Dict[str, float]]) -> Optional[str]:
    """The label of the highest percentile a summary reports (summaries
    list percentiles in increasing order)."""
    labels = list(summary)
    return labels[-1] if labels else None
