"""Chunked parallel reductions over exact quantized moments.

The reductions of :mod:`repro.core.ops.reductions` finish one
:class:`~repro.core.moments.QuantizedMoments` per stream.  For large
streams the stored-block pass dominates and parallelizes trivially: this
module routes it through the pluggable execution backends
(:mod:`repro.parallel.backends`) — or, for backward compatibility, a
:class:`repro.parallel.executor.ChunkedExecutor` / thread count — as one
moments partial per chunk, while the constant blocks (the Table V fast
path) stay in closed form: they are O(n_blocks) and not worth
distributing.

Exactness: the partials are exact integers and combine by exact integer
addition, so every reduction here equals its serial counterpart bit for
bit on every backend and for every worker count.

The decoded blocks come through :func:`stored_quantized`, i.e. the decoded
-block cache: a parallel reduction after any other operation on the same
stream skips the decode entirely.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import StoredBlocks, stored_quantized
from repro.parallel import kernels
from repro.parallel.backends import ExecutionBackend
from repro.parallel.executor import ChunkedExecutor
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

#: Accepted executor specs: a pluggable backend, the legacy thread
#: executor, or a bare thread count.
Executor = ExecutionBackend | ChunkedExecutor | int


@contextmanager
def _as_executor(
    executor: Executor,
) -> Iterator[ExecutionBackend | ChunkedExecutor]:
    """Accept a ready executor/backend or a thread count (owned per call)."""
    if isinstance(executor, (ExecutionBackend, ChunkedExecutor)):
        yield executor
    elif isinstance(executor, int):
        with ChunkedExecutor(executor) as ex:
            yield ex
    else:
        raise TypeError(
            f"executor must be an ExecutionBackend, a ChunkedExecutor or a "
            f"thread count, got {type(executor).__name__}"
        )


def chunked_moments(blocks: StoredBlocks, executor: Executor) -> QuantizedMoments:
    """Moments of a decoded view, the stored values summed chunk by chunk."""
    q = blocks.q
    parts: list[QuantizedMoments] = []
    if q.size:
        with _as_executor(executor) as ex:
            if isinstance(ex, ExecutionBackend):
                chunks = [
                    {"lo": lo, "hi": hi} for lo, hi in even_ranges(q.size, ex.n_workers)
                ]
                kernel = kernels.reduce_moments_chunk
                parts = ex.run_kernel(kernel, {"q": q}, chunks).results
            else:
                parts = ex.map_ranges(
                    lambda lo, hi: QuantizedMoments.of_values(q[lo:hi]), q.size
                )
    const = QuantizedMoments.of_values(blocks.const_outliers, blocks.const_lens)
    return QuantizedMoments.combine(parts) + const


def _parallel(
    c: SZOpsCompressed, executor: Executor, reduction: str, ddof: int = 0
) -> float:
    moments = chunked_moments(stored_quantized(c), executor)
    return moments.finish(reduction, c.eps, ddof)


def parallel_mean(c: SZOpsCompressed, executor: Executor) -> float:
    """Compressed-domain mean; equals :func:`repro.core.ops.mean` bit for bit."""
    return _parallel(c, executor, "mean")


def parallel_variance(
    c: SZOpsCompressed, executor: Executor, ddof: int = 0
) -> float:
    """Compressed-domain variance; equals :func:`repro.core.ops.variance`."""
    return _parallel(c, executor, "variance", ddof)


def parallel_std(
    c: SZOpsCompressed, executor: Executor, ddof: int = 0
) -> float:
    """Compressed-domain standard deviation; equals :func:`repro.core.ops.std`."""
    return _parallel(c, executor, "std", ddof)


def parallel_summary_statistics(
    c: SZOpsCompressed, executor: Executor, ddof: int = 0
) -> dict[str, float]:
    """Mean/variance/std from one chunked moments pass."""
    return chunked_moments(stored_quantized(c), executor).summary(c.eps, ddof)


def parallel_minimum(c: SZOpsCompressed, executor: Executor) -> float:
    """Compressed-domain minimum via chunked moments."""
    return _parallel(c, executor, "minimum")


def parallel_maximum(c: SZOpsCompressed, executor: Executor) -> float:
    """Compressed-domain maximum via chunked moments."""
    return _parallel(c, executor, "maximum")
