"""Negative SZL101 fixture: the peak guard from one max/min pair."""

import numpy as np

Q_LIMIT = np.int64(1) << 62


def shift(q: np.ndarray, k: int) -> np.ndarray:
    k = int(k)
    # max(q.max(), -q.min()) is |q|.max() without an |q| temporary; the
    # Python-int negation also catches INT64_MIN, which np.abs wraps.
    peak = max(int(q.max()), -int(q.min())) + abs(k)
    if peak >= int(Q_LIMIT):
        raise OverflowError("scalar shift overflows the quantized range")
    return q + k
