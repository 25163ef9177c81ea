"""Negative SZL102 fixture: the NaN-propagating range guard.

``max``/``min`` propagate NaN and every ordered comparison with NaN is
False, so both comparisons holding proves ``scaled`` finite and inside
``(-Q_LIMIT, Q_LIMIT)`` without an ``isfinite`` pass.
"""

import numpy as np

Q_LIMIT = np.int64(1) << 62


def bins(x: np.ndarray, eps: float) -> np.ndarray:
    scaled = np.floor(x.astype(np.float64) / (2.0 * eps))
    limit = float(Q_LIMIT)
    if scaled.size and not (scaled.max() < limit and scaled.min() > -limit):
        raise ValueError("data overflows the quantized integer range")
    return scaled.astype(np.int64)
