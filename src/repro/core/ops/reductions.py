"""Univariate reductions: mean, variance, standard deviation (Section V-B).

All of them run in the *quantized integer domain*: the payload is decoded
to quantized values (BF^-1, Lorenzo^-1) for non-constant blocks only, and
the exact integer moments of :class:`~repro.core.moments.QuantizedMoments`
(``Σq``, ``Σq²``, min, max, count) are scaled by ``2*eps`` (or its square)
once at the end.  Constant blocks contribute closed-form terms computed from
the outlier plane — ``O * len`` to the sum and ``O² * len`` to the sum of
squares — so datasets with many constant blocks reduce faster, which is the
effect Table VI / Figure 6 document.

The sums are exact integers and each scalar is rounded once, so the results
are the statistics of the *fully decompressed* array ``2*eps*q`` computed
exactly, and therefore within the usual error-propagation distance of the
raw data's statistics: ``|mean_c - mean_raw| <= eps`` and
``|std_c - std_raw| <= 2*eps`` style bounds follow directly from the
pointwise bound.

Every reduction here reads its moments through
:func:`~repro.core.ops._partial.stored_moments`, which memoises them on
the container for its lifetime: a second reduction of the same stream
costs only the final scaling, even after the decoded-block cache evicted
its bins.  :func:`~repro.runtime.clear_cache` invalidates the memo, and
under :func:`~repro.runtime.cache_disabled` every call decodes.
"""

from __future__ import annotations

import numpy as np

from repro.bitstream import exclusive_cumsum
from repro.core.format import SZOpsCompressed
from repro.core.ops._partial import stored_moments, stored_quantized

__all__ = [
    "mean",
    "variance",
    "std",
    "block_means",
    "summary_statistics",
    "minimum",
    "maximum",
    "value_range",
]

#: How each exported reduction propagates the stream's error bound
#: (vocabulary in docs/ANALYSIS.md, checked by lint rule SZL005).
ERROR_PROPAGATION = {
    "mean": "computation",
    "variance": "computation",
    "std": "computation",
    "block_means": "computation",
    "summary_statistics": "computation",
    "minimum": "computation",
    "maximum": "computation",
    "value_range": "computation",
}

_I64_MAX = (1 << 63) - 1
#: Largest magnitude below which every integer is exact in float64.
_F64_EXACT = 1 << 53


def _finish(c: SZOpsCompressed, reduction: str, ddof: int = 0) -> float:
    return stored_moments(c).finish(reduction, c.eps, ddof)


def mean(c: SZOpsCompressed) -> float:
    """Mean of the represented array, computed without full decompression."""
    return _finish(c, "mean")


def variance(c: SZOpsCompressed, ddof: int = 0) -> float:
    """Variance of the represented array, exact in the quantized domain.

    ``ddof`` matches NumPy's convention (0 = population variance).
    """
    return _finish(c, "variance", ddof)


def std(c: SZOpsCompressed, ddof: int = 0) -> float:
    """Standard deviation: the square root of :func:`variance` (Section V-B.3)."""
    return _finish(c, "std", ddof)


def block_means(c: SZOpsCompressed) -> np.ndarray:
    """Per-block means — the paper notes the mean kernel supports these too.

    Returns a float64 array of length ``c.n_blocks`` where entry ``b`` is
    the mean of the elements of block ``b`` in the represented array, bit
    for bit what :func:`mean` returns for that block alone: the block sum
    is an exact integer and ``sum / len`` is rounded once.
    """
    blocks = stored_quantized(c)
    means = np.empty(c.n_blocks, dtype=np.float64)
    # A constant block's mean is its outlier: no outlier·len/len product.
    means[~blocks.stored_mask] = blocks.const_outliers
    if blocks.q.size:
        means[blocks.stored_mask] = _exact_block_means(blocks.q, blocks.lens)
    with np.errstate(over="ignore"):  # inf where the scalar mean is inf too
        return 2.0 * c.eps * means


def _exact_block_means(q: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Correctly rounded ``Σq / len`` of each consecutive block of ``q``."""
    starts = exclusive_cumsum(lens)
    if max(int(q.max()), -int(q.min())) * int(lens.max()) <= _I64_MAX:
        sums = np.add.reduceat(q, starts)
    else:  # 32-bit halves: each half's block sum fits int64; join as Python ints
        hi = np.add.reduceat(q >> 32, starts).astype(object)
        sums = hi * (1 << 32) + np.add.reduceat(q & 0xFFFFFFFF, starts)
    means = (sums / lens).astype(np.float64)
    # float64 division rounds once only while the sum is exact in float64;
    # object (Python int) division is correctly rounded for any size
    big = np.flatnonzero((sums > _F64_EXACT) | (sums < -_F64_EXACT))
    means[big] = (sums[big].astype(object) / lens[big]).astype(np.float64)
    return means


def summary_statistics(c: SZOpsCompressed, ddof: int = 0) -> dict[str, float]:
    """Mean, variance and standard deviation from one set of moments."""
    return stored_moments(c).summary(c.eps, ddof)


def minimum(c: SZOpsCompressed) -> float:
    """Minimum of the represented array (Section III names max/min as
    computation-as-output examples; same partial-decode machinery)."""
    return _finish(c, "minimum")


def maximum(c: SZOpsCompressed) -> float:
    """Maximum of the represented array (see :func:`minimum`)."""
    return _finish(c, "maximum")


def value_range(c: SZOpsCompressed) -> float:
    """``max - min`` of the represented array in one partial decode."""
    return _finish(c, "range")
