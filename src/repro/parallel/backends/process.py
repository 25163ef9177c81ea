"""True multi-core execution: a warm process pool over shared memory.

The Python-level group loops inside ``encode_magnitudes`` /
``decode_magnitudes`` hold the GIL, so the thread backend's speedup caps
out well below the paper's 12-way OpenMP CPU SZp.  This backend runs the
same chunk kernels in a **warm, reusable** ``ProcessPoolExecutor``:

* array payloads travel by :class:`~repro.parallel.backends.shm.ShmArena`
  — workers receive only tiny descriptors (segment name, offset, shape,
  dtype) and build zero-copy views, so a chunk round-trip costs no array
  serialization;
* workers keep **lazy per-process state** (attached-segment cache, codec
  instances, resolved bitpack kernels — including any one-time numba JIT
  compilation) so repeated calls against a warm pool pay no setup;
* chunk dispatch is **autotuned**: the backend probes the pool's
  per-future IPC overhead once, tracks an EWMA of per-chunk runtime per
  kernel, and batches multiple chunks into one round-trip whenever chunks
  are cheap relative to dispatch (``OVERHEAD_AMORTIZATION``);
* every ``Future.result`` is **bounded** by ``timeout`` and a dead or
  hung worker surfaces a :class:`BackendWorkerError` naming the chunk
  range — never a deadlock — after which the pool **self-heals**: the
  broken pool is torn down (hung workers killed) and the next call gets
  a fresh one.

The ``fork`` start method is preferred (workers inherit the imported
NumPy stack instead of re-importing it); ``spawn`` is the fallback where
fork is unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Any, Mapping, Sequence

import numpy as np

from repro.parallel.backends.base import (
    BackendWorkerError,
    ChunkKernel,
    ExecutionBackend,
    KernelRun,
    format_chunk,
)
from repro.parallel.backends.shm import ArrayDescriptor, ShmArena, attach_arrays

__all__ = ["ProcessBackend", "DEFAULT_TIMEOUT"]

#: Per-chunk result deadline (seconds).  Generous — chunks are sub-second
#: in practice — but *bounded*, which is what turns a hung worker into a
#: clean BackendWorkerError instead of a deadlock.
DEFAULT_TIMEOUT = 120.0

#: Chunk-batch autotuning: batch chunks per future until the estimated
#: batch runtime is at least this multiple of the measured per-dispatch
#: overhead, so IPC round-trips stay a bounded fraction of the work.
OVERHEAD_AMORTIZATION = 8.0

#: EWMA smoothing for the per-kernel per-chunk runtime estimate.
_EWMA_ALPHA = 0.4


def _preferred_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _noop_probe() -> int:
    """Round-trip probe used to measure per-dispatch pool overhead."""
    return 0


def _invoke_kernel(
    kernel: ChunkKernel,
    descriptors: dict[str, ArrayDescriptor],
    chunk: dict[str, Any],
) -> Any:
    """Worker-side trampoline: attach shared arrays, run the kernel."""
    return kernel(attach_arrays(descriptors), chunk)


def _invoke_kernel_batch(
    kernel: ChunkKernel,
    descriptors: dict[str, ArrayDescriptor],
    chunks: list[dict[str, Any]],
) -> list[Any]:
    """Batched trampoline: one attach + IPC round-trip for many chunks.

    Worker-side state (attached segments, resolved bitpack kernels, codec
    caches) persists across batches because pool processes are warm.
    """
    arrays = attach_arrays(descriptors)
    return [kernel(arrays, chunk) for chunk in chunks]


class ProcessBackend(ExecutionBackend):
    """Warm multi-process pool with shared-memory block transport."""

    name = "processes"

    # Lock discipline (verified by the lockcheck pass): every mutation of
    # these attributes must hold self._lock — run_kernel may be called
    # from several threads (e.g. concurrent in-situ fields).
    _GUARDED_ATTRS = ("_pool", "_dispatch_overhead_s", "_chunk_ewma_s")

    def __init__(
        self,
        n_workers: int = 1,
        timeout: float = DEFAULT_TIMEOUT,
        mp_context: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        super().__init__(n_workers)
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._ctx = mp_context if mp_context is not None else _preferred_context()
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        #: Measured per-future dispatch overhead (seconds); probed once per
        #: pool lifetime against a warm pool.
        self._dispatch_overhead_s: float | None = None
        #: EWMA of per-chunk runtime, keyed by kernel qualname — the
        #: autotuner's estimate of how much work one chunk carries.
        self._chunk_ewma_s: dict[str, float] = {}

    # ------------------------------------------------------------------ pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=self._ctx
                )
            return self._pool

    def _discard_pool(self, kill: bool) -> None:
        """Drop the current pool so the next call builds a fresh one."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._dispatch_overhead_s = None  # fresh pool -> re-probe
        if pool is None:
            return
        if kill:
            # A hung worker never drains its call queue; terminate the
            # processes so shutdown below cannot block.
            for proc in list(getattr(pool, "_processes", {}).values()):
                if proc.is_alive():  # pragma: no branch - racy liveness
                    proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ autotuning

    def _measure_overhead(self, pool: ProcessPoolExecutor) -> float:
        """Per-future dispatch overhead against a warm pool (probed once).

        The first probe also forces the pool to actually fork its workers,
        so subsequent timing reflects steady-state IPC cost, not startup.
        """
        with self._lock:
            cached = self._dispatch_overhead_s
        if cached is not None:
            return cached
        # Warm every worker, then time a second wave of no-op round-trips.
        for f in [pool.submit(_noop_probe) for _ in range(self.n_workers)]:
            f.result(timeout=self.timeout)
        t0 = perf_counter()
        probes = [pool.submit(_noop_probe) for _ in range(self.n_workers)]
        for f in probes:
            f.result(timeout=self.timeout)
        overhead = max((perf_counter() - t0) / max(1, self.n_workers), 1e-6)
        with self._lock:
            self._dispatch_overhead_s = overhead
        return overhead

    def _plan_batches(
        self, kernel_name: str, chunks: list[dict[str, Any]], overhead: float
    ) -> list[list[dict[str, Any]]]:
        """Group chunks into per-future batches that amortize dispatch cost.

        With no runtime estimate yet (first call for this kernel) every
        chunk ships alone so the EWMA can observe real per-chunk cost.
        Afterwards, batch size targets ``OVERHEAD_AMORTIZATION x`` the
        measured dispatch overhead per future, capped so all workers stay
        busy.
        """
        n = len(chunks)
        if n <= self.n_workers:
            return [[c] for c in chunks]
        with self._lock:
            avg = self._chunk_ewma_s.get(kernel_name)
        if avg is None:
            return [[c] for c in chunks]
        target_s = overhead * OVERHEAD_AMORTIZATION
        per_batch = max(1, int(target_s / max(avg, 1e-9)))
        per_batch = min(per_batch, -(-n // self.n_workers))
        return [chunks[i : i + per_batch] for i in range(0, n, per_batch)]

    def _note_chunk_time(self, kernel_name: str, n_chunks: int, elapsed: float) -> None:
        if n_chunks <= 0:
            return
        sample = elapsed / n_chunks
        with self._lock:
            prev = self._chunk_ewma_s.get(kernel_name)
            self._chunk_ewma_s[kernel_name] = (
                sample
                if prev is None
                else _EWMA_ALPHA * sample + (1.0 - _EWMA_ALPHA) * prev
            )

    # ------------------------------------------------------------------ kernels

    def run_kernel(
        self,
        kernel: ChunkKernel,
        arrays: Mapping[str, np.ndarray],
        chunks: Sequence[Mapping[str, Any]],
        out_specs: Mapping[str, tuple[Sequence[int], Any]] | None = None,
    ) -> KernelRun:
        arena = ShmArena(arrays, out_specs)
        try:
            pool = self._ensure_pool()
            overhead = self._measure_overhead(pool)
            kernel_name = getattr(kernel, "__qualname__", repr(kernel))
            batches = self._plan_batches(
                kernel_name, [dict(chunk) for chunk in chunks], overhead
            )
            t0 = perf_counter()
            pending = [
                (
                    batch,
                    pool.submit(
                        _invoke_kernel_batch, kernel, arena.descriptors, batch
                    ),
                )
                for batch in batches
            ]
            results = [
                result
                for batch_results in self._collect_batches(pending)
                for result in batch_results
            ]
            self._note_chunk_time(kernel_name, len(results), perf_counter() - t0)
            outputs = {
                name: arena.fetch(name) for name in (out_specs or {})
            }
            return KernelRun(results=results, outputs=outputs)
        finally:
            arena.destroy()

    def _collect_batches(
        self, pending: list[tuple[list[dict[str, Any]], Any]]
    ) -> list[list[Any]]:
        """Per-batch results in order; deadlines scale with batch size."""
        results: list[list[Any]] = []
        for batch, future in pending:
            chunk = batch[0] if batch else {}
            deadline = self.timeout * max(1, len(batch))
            try:
                results.append(future.result(timeout=deadline))
            except BrokenProcessPool as exc:
                self._discard_pool(kill=False)
                raise BackendWorkerError(
                    f"process worker died while running a batch of "
                    f"{len(batch)} chunk(s) starting at {format_chunk(chunk)}",
                    chunk=chunk,
                ) from exc
            except FutureTimeoutError as exc:
                self._discard_pool(kill=True)
                raise BackendWorkerError(
                    f"process worker exceeded {deadline:g}s on a batch of "
                    f"{len(batch)} chunk(s) starting at {format_chunk(chunk)}",
                    chunk=chunk,
                ) from exc
        return results

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessBackend(n_workers={self.n_workers}, "
            f"timeout={self.timeout:g}, pid={os.getpid()})"
        )
