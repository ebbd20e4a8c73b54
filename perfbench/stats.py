"""Exact order statistics over raw samples.

Quantiles interpolate linearly between the two closest order statistics
of the sorted sample (Hyndman-Fan type 7, the numpy default), so they
are exact functions of the data: no histogram buckets, and a zero stays
a zero.
"""

import math

# A tail percentile is reported only when at least this many samples
# lie strictly beyond it.
MIN_TAIL_SAMPLES = 10


def quantile(values, q):
    """The q-quantile (0 <= q <= 1) of a non-empty sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def median(values):
    return quantile(values, 0.5)


def beyond(values, q):
    """How many samples lie strictly above the q-quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)
