"""Order statistics the benchmark reports."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, samples_beyond)``. With n samples sorted
    ascending, the order statistic at 0-based index n - beyond - 1 has
    ``beyond`` samples above it and (n - beyond) / n of the samples at or
    below it. With ``beyond`` or fewer samples no percentile qualifies; the
    maximum is returned as percentile 100 with the samples beyond it (none).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return 100.0, xs[-1], 0
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, xs[k], n - k - 1
