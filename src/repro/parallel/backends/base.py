"""The pluggable execution-backend interface.

SZOps workloads are embarrassingly block-parallel (SZx and the cuSZ line
exploit exactly this), but *how* the chunks execute is a deployment
decision: inline for small arrays, a thread pool when NumPy kernels
release the GIL, a warm process pool when Python-level group loops
dominate.  Every chunked hot path — compression, partial decode, the
compressed-domain reductions, the multi-field in-situ harness — goes
through this one interface, so swapping the substrate is a config knob,
never a code change.

The one primitive is :meth:`ExecutionBackend.run_kernel`: a *named,
module-level* kernel applied to chunk descriptors over a set of shared
arrays.  Kernels mutate preallocated output arrays in place and return
only small picklable summaries, which is what lets the process backend
move array payloads through shared memory instead of pickle (see
:mod:`repro.parallel.backends.shm`).  Chunked work runs no other way.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BackendError",
    "BackendWorkerError",
    "ChunkKernel",
    "KernelRun",
    "ExecutionBackend",
    "format_chunk",
]

#: ``kernel(arrays, chunk) -> small picklable result``.  ``arrays`` maps
#: names to NumPy arrays (inputs plus in-place outputs); ``chunk`` is a
#: small dict of ints/floats/strings describing the slice of work.
ChunkKernel = Callable[[dict[str, np.ndarray], dict[str, Any]], Any]


class BackendError(RuntimeError):
    """A backend could not execute the submitted work."""


class BackendWorkerError(BackendError):
    """A worker died, hung, or broke the pool while running a chunk.

    Carries the chunk descriptor whose result was being awaited, so the
    failure names the block range instead of surfacing as a bare
    ``BrokenProcessPool`` (or worse, a deadlock).
    """

    def __init__(self, message: str, chunk: Mapping[str, Any] | None = None) -> None:
        super().__init__(message)
        self.chunk = dict(chunk) if chunk is not None else None


def format_chunk(chunk: Mapping[str, Any] | None) -> str:
    """Human-readable chunk range for error messages."""
    if not chunk:
        return "<unknown chunk>"
    if "lo" in chunk and "hi" in chunk:
        return f"chunk [{chunk['lo']}, {chunk['hi']})"
    return f"chunk {dict(chunk)!r}"


class KernelRun(NamedTuple):
    """The outcome of :meth:`ExecutionBackend.run_kernel`."""

    #: Per-chunk kernel return values, in chunk order.
    results: list[Any]
    #: Materialized output arrays (private copies, safe to keep).
    outputs: dict[str, np.ndarray]


class ExecutionBackend(ABC):
    """One execution substrate for chunked blockwise kernels.

    Concrete backends: ``serial`` (inline), ``threads`` (shared-address
    -space pool), ``processes`` (warm worker pool + shared-memory
    transport).  All of them guarantee: chunk results come back in
    submission order, output arrays hold every chunk's writes, and a
    failed worker surfaces :class:`BackendWorkerError` rather than a
    hang.  ``n_workers`` doubles as the default partition width so that
    two backends configured alike produce *identical* chunkings — the
    property the cross-backend bit-identity suite pins down.
    """

    #: Registry name ("serial" / "threads" / "processes").
    name: str = "abstract"

    def __init__(self, n_workers: int = 1) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers

    # ------------------------------------------------------------------ kernels

    @abstractmethod
    def run_kernel(
        self,
        kernel: ChunkKernel,
        arrays: Mapping[str, np.ndarray],
        chunks: Sequence[Mapping[str, Any]],
        out_specs: Mapping[str, tuple[Sequence[int], Any]] | None = None,
    ) -> KernelRun:
        """Apply ``kernel`` to every chunk over the shared ``arrays``.

        ``out_specs`` (``name -> (shape, dtype)``) declares arrays the
        backend must allocate for the kernels to fill; they come back in
        :attr:`KernelRun.outputs` as ordinary NumPy arrays owned by the
        caller.  The kernel must be a module-level callable for the
        process backend (it crosses the pickle boundary by name).
        """

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release pooled workers (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_workers={self.n_workers})"
