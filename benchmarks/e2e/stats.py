"""Percentiles, the "ten samples beyond" rule, and run-to-run spread."""

from __future__ import annotations

import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-quantile (0 < q <= 1) of *values*; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return float(ordered[rank])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def samples_needed(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples beyond *q*."""
    return int(round(MIN_BEYOND / (1.0 - q)))


def supported_percentile(values, q: float) -> float:
    """``percentile(values, q)``, or 0.0 when too few samples support it."""
    if len(values) < samples_needed(q):
        return 0.0
    return percentile(values, q)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver computes them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative when better)."""
    if not first:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta
