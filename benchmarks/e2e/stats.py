"""Sample summaries: median, quartiles, and the highest supported percentile."""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
_TAIL_PERCENTILES = (90, 75)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One sample is its own quartiles, so short smoke runs still summarize.
    """
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p90/p75 that still has ``MIN_BEYOND`` samples beyond it.

    ``None`` when even p75 is supported by fewer than ten samples: a
    percentile read off one or two samples is a single slow run, not a
    property of the distribution.
    """
    n = len(values)
    ordered = sorted(values)
    for p in _TAIL_PERCENTILES:
        beyond = n - math.ceil(n * p / 100)
        if beyond >= MIN_BEYOND:
            return (p, ordered[n - beyond - 1])
    return None


def summarize(values: list[float]) -> dict:
    """Median with sample count, quartiles and the non-gating tail."""
    q1, q2, q3 = quartiles(values)
    out = {"median": q2, "n": len(values), "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out
