"""Median and quartiles as the driver computes them
(``statistics.quantiles(values, n=4)``), shared by run/collect/compare."""

from __future__ import annotations

import statistics


def summarize(values) -> dict:
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "min": min(values)}


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0
