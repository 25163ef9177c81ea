"""Execution substrate: pluggable backends, simulated MPI.

The collectives layer imports the compressor (ranks hold compressed
streams), while the compressor routes its chunked hot paths through
:mod:`repro.parallel.backends`; the collectives/simmpi names are therefore
exported lazily so ``repro.core`` ↔ ``repro.parallel`` stays acyclic.
"""

from __future__ import annotations

from typing import Any

from repro.parallel.backends import (
    BackendError,
    BackendWorkerError,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.parallel.partition import (
    BlockChunk,
    block_aligned_ranges,
    block_chunks,
    even_ranges,
)

__all__ = [
    "BackendError",
    "BackendWorkerError",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "get_backend",
    "even_ranges",
    "block_aligned_ranges",
    "BlockChunk",
    "block_chunks",
    "SimComm",
    "run_spmd",
    "compressed_mean_allreduce",
    "compressed_stats_allreduce",
    "traditional_stats_allreduce",
]

_LAZY = {
    "SimComm": "repro.parallel.simmpi",
    "run_spmd": "repro.parallel.simmpi",
    "compressed_mean_allreduce": "repro.parallel.collectives",
    "compressed_stats_allreduce": "repro.parallel.collectives",
    "traditional_stats_allreduce": "repro.parallel.collectives",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
