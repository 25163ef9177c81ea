"""SZL003 positive: NaN-unsafe comparisons on float-domain values."""

import numpy as np


def guard(values, factor):
    scaled = np.rint(values * factor)
    # NaN compares False against every threshold, slipping past the guard.
    if scaled.max() >= 2.0**62:
        raise OverflowError("scale overflows the quantized range")
    return scaled


def disjunctive_guard(values, factor, shift):
    scaled = np.rint(values * factor)
    # Under ``not (... or ...)`` a True second term lets a NaN max through.
    if not (scaled.max() < 2.0**62 or shift > 0):
        raise OverflowError("scale overflows the quantized range")
    return scaled
