"""In-process backends: ``serial`` (inline) and ``threads`` (pool).

Both run kernels against the caller's own arrays — no transport at all —
which makes them the reference implementations the process backend must
match bit for bit.  The thread backend follows the ``_GUARDED_ATTRS``
lock discipline (verified by the lockcheck pass): the lazily created pool
handle is only ever mutated under ``self._lock``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping, Sequence

import numpy as np

from repro.parallel.backends.base import (
    ChunkKernel,
    ExecutionBackend,
    KernelRun,
)

__all__ = ["SerialBackend", "ThreadBackend", "alloc_outputs"]


def alloc_outputs(
    out_specs: Mapping[str, tuple[Sequence[int], Any]] | None,
) -> dict[str, np.ndarray]:
    """Zero-initialized plain-memory output arrays for local backends."""
    if not out_specs:
        return {}
    return {
        name: np.zeros(tuple(int(s) for s in shape), dtype=np.dtype(dtype))
        for name, (shape, dtype) in out_specs.items()
    }


class SerialBackend(ExecutionBackend):
    """Inline execution; ``n_workers`` only controls the chunk partition.

    Callers partition by ``n_workers`` on every backend, so a serial run
    executes inline exactly the chunks a pooled run would: the reference
    the cross-backend identity suite holds the pools to, and a way to
    reproduce a chunk-boundary fault without one.  Results never depend
    on the partition itself: encoded chunks land at precomputed byte
    offsets and reductions add exact integer moments.
    """

    name = "serial"

    def run_kernel(
        self,
        kernel: ChunkKernel,
        arrays: Mapping[str, np.ndarray],
        chunks: Sequence[Mapping[str, Any]],
        out_specs: Mapping[str, tuple[Sequence[int], Any]] | None = None,
    ) -> KernelRun:
        outputs = alloc_outputs(out_specs)
        merged = {**dict(arrays), **outputs}
        results = [kernel(merged, dict(chunk)) for chunk in chunks]
        return KernelRun(results=results, outputs=outputs)


class ThreadBackend(ExecutionBackend):
    """Shared-address-space pool; fastest when kernels release the GIL."""

    name = "threads"

    # Lock discipline (verified by the lockcheck pass): every mutation of
    # these attributes must hold self._lock.
    _GUARDED_ATTRS = ("_pool",)

    def __init__(self, n_workers: int = 1) -> None:
        super().__init__(n_workers)
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def run_kernel(
        self,
        kernel: ChunkKernel,
        arrays: Mapping[str, np.ndarray],
        chunks: Sequence[Mapping[str, Any]],
        out_specs: Mapping[str, tuple[Sequence[int], Any]] | None = None,
    ) -> KernelRun:
        outputs = alloc_outputs(out_specs)
        merged = {**dict(arrays), **outputs}
        if len(chunks) <= 1:
            results = [kernel(merged, dict(chunk)) for chunk in chunks]
            return KernelRun(results=results, outputs=outputs)
        pool = self._ensure_pool()
        futures = [pool.submit(kernel, merged, dict(chunk)) for chunk in chunks]
        return KernelRun(results=[f.result() for f in futures], outputs=outputs)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # Shut down outside the lock: draining workers may re-enter.
            pool.shutdown(wait=True)
