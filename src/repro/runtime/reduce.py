"""Chunked parallel reductions over exact quantized moments.

The reductions of :mod:`repro.core.ops.reductions` finish one
:class:`~repro.core.moments.QuantizedMoments` per stream.  For large
streams the stored-block pass dominates and parallelizes trivially: this
module runs it as :meth:`~repro.parallel.backends.ExecutionBackend.run_kernel`
chunks on an execution backend (:mod:`repro.parallel.backends`), one
moments partial per chunk, while the constant blocks (the Table V fast
path) stay in closed form: they are O(n_blocks) and not worth
distributing.  With no backend (``executor=None``) a stream's reduction
reads the moments :func:`~repro.core.ops._partial.stored_moments`
memoises on the container, exactly as :mod:`repro.core.ops.reductions`
does; with a backend every call sums its chunks afresh.

Exactness: the partials are exact integers and combine by exact integer
addition, so every reduction here equals its serial counterpart bit for
bit on every backend and for every worker count.

The decoded blocks come through :func:`stored_quantized`, i.e. the decoded
-block cache: a parallel reduction after any other operation on the same
stream skips the decode entirely.  :func:`~repro.runtime.clear_cache` and
:func:`~repro.runtime.cache_disabled` govern the moments memo as they do
the bins.
"""

from __future__ import annotations

from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import StoredBlocks, stored_moments, stored_quantized
from repro.parallel import kernels
from repro.parallel.backends import ExecutionBackend
from repro.parallel.partition import even_ranges

__all__ = [
    "chunked_moments",
    "parallel_mean",
    "parallel_variance",
    "parallel_std",
    "parallel_summary_statistics",
    "parallel_minimum",
    "parallel_maximum",
]


def chunked_moments(
    blocks: StoredBlocks, executor: ExecutionBackend | None
) -> QuantizedMoments:
    """Moments of a decoded view, the stored values summed chunk by chunk."""
    if executor is None:
        return blocks.moments
    if not isinstance(executor, ExecutionBackend):
        raise TypeError(
            f"executor must be an ExecutionBackend or None, "
            f"got {type(executor).__name__}"
        )
    q = blocks.q
    chunks = [
        {"lo": lo, "hi": hi} for lo, hi in even_ranges(q.size, executor.n_workers)
    ]
    run = executor.run_kernel(kernels.reduce_moments_chunk, {"q": q}, chunks)
    const = QuantizedMoments.of_values(blocks.const_outliers, blocks.const_lens)
    return QuantizedMoments.combine(run.results) + const


def _stream_moments(
    c: SZOpsCompressed, executor: ExecutionBackend | None
) -> QuantizedMoments:
    if executor is None:
        return stored_moments(c)
    return chunked_moments(stored_quantized(c), executor)


def _parallel(
    c: SZOpsCompressed,
    executor: ExecutionBackend | None,
    reduction: str,
    ddof: int = 0,
) -> float:
    return _stream_moments(c, executor).finish(reduction, c.eps, ddof)


def parallel_mean(c: SZOpsCompressed, executor: ExecutionBackend | None) -> float:
    """Compressed-domain mean; equals :func:`repro.core.ops.mean` bit for bit."""
    return _parallel(c, executor, "mean")


def parallel_variance(
    c: SZOpsCompressed, executor: ExecutionBackend | None, ddof: int = 0
) -> float:
    """Compressed-domain variance; equals :func:`repro.core.ops.variance`."""
    return _parallel(c, executor, "variance", ddof)


def parallel_std(
    c: SZOpsCompressed, executor: ExecutionBackend | None, ddof: int = 0
) -> float:
    """Compressed-domain standard deviation; equals :func:`repro.core.ops.std`."""
    return _parallel(c, executor, "std", ddof)


def parallel_summary_statistics(
    c: SZOpsCompressed, executor: ExecutionBackend | None, ddof: int = 0
) -> dict[str, float]:
    """Mean/variance/std from one chunked moments pass."""
    return _stream_moments(c, executor).summary(c.eps, ddof)


def parallel_minimum(c: SZOpsCompressed, executor: ExecutionBackend | None) -> float:
    """Compressed-domain minimum via chunked moments."""
    return _parallel(c, executor, "minimum")


def parallel_maximum(c: SZOpsCompressed, executor: ExecutionBackend | None) -> float:
    """Compressed-domain maximum via chunked moments."""
    return _parallel(c, executor, "maximum")
