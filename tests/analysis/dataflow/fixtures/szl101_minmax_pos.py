"""Positive SZL101 fixture: a max/min peak guard over the wrong plane."""

import numpy as np

Q_LIMIT = np.int64(1) << 62


def shift(q: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    k = int(k)
    # The minimum comes from `p`, so the guard bounds neither plane and
    # the add on `q` can still wrap int64.
    peak = max(int(q.max()), -int(p.min())) + abs(k)
    if peak >= int(Q_LIMIT):
        raise OverflowError("scalar shift overflows the quantized range")
    return q + k
