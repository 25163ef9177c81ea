"""Positive SZL101 fixture: an ``int``-annotated shift with no guard."""

import numpy as np


def shift(q: np.ndarray, k: int) -> np.ndarray:
    # k is a Python int of any size: q + k can leave int64 unchecked.
    return q + k
