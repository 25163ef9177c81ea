"""Positive SZL102 fixture: a range guard that NaN slips through.

``NaN >= limit`` and ``NaN <= -limit`` are both False, so an array holding
NaN passes this guard and reaches the cast.
"""

import numpy as np

Q_LIMIT = np.int64(1) << 62


def bins(x: np.ndarray, eps: float) -> np.ndarray:
    scaled = np.floor(x.astype(np.float64) / (2.0 * eps))
    limit = float(Q_LIMIT)
    if scaled.max() >= limit or scaled.min() <= -limit:
        raise ValueError("data overflows the quantized integer range")
    return scaled.astype(np.int64)
