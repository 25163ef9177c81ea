"""SZL003 negative: isfinite-guarded and NaN-rejecting comparisons pass."""

import numpy as np


def guard(values, factor):
    scaled = np.rint(values * factor)
    if not np.all(np.isfinite(scaled)):
        raise OverflowError("scale produced non-finite values")
    if scaled.max() >= 2.0**62:
        raise OverflowError("scale overflows the quantized range")
    return scaled


def range_guard(values, factor):
    scaled = np.rint(values * factor)
    # max/min propagate NaN, and NaN fails both comparisons: the guard fires.
    if scaled.size and not (scaled.max() < 2.0**62 and scaled.min() > -(2.0**62)):
        raise OverflowError("scale overflows the quantized range")
    return scaled
