"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

# The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values):
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample_count).  With n sorted samples the
    value at 0-based index k has n - 1 - k samples beyond it, so the answer is
    index n - 1 - TAIL_BEYOND, reported as the nearest-rank percentile
    100 * (k + 1) / n.  A run with fewer than TAIL_BEYOND + 1 samples has no
    such percentile; it reports its slowest sample as percentile 100, and the
    caller says so beside the value.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / n, n


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
