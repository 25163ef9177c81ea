"""Lazy op-fusion runtime: decoded-block caching + fused scalar-op chains.

Three cooperating pieces turn chains of compressed-domain operations from
N decodes into one:

* :mod:`repro.runtime.cache` — a process-wide LRU of decoded
  :class:`~repro.core.ops._partial.StoredBlocks`, keyed by the stream's
  content fingerprint; every operation's partial decode goes through it.
* :mod:`repro.runtime.lazy` — :class:`LazyStream`, which composes negation
  and scalar add/sub/mul into a pending ``(a·x + b)``-style transform that
  is materialized into the quantized domain only when a reduction or
  serialization forces it.
* :mod:`repro.runtime.reduce` — chunked parallel reductions that run
  block partial moments as ``run_kernel`` chunks on an
  :class:`~repro.parallel.backends.ExecutionBackend`, with the
  constant-block closed forms kept intact.

See ``docs/FORMAT.md`` ("Runtime fusion semantics") for the laziness and
cache-key contract, and ``BENCH_runtime.json`` for the measured chain
speedup.
"""

from repro.runtime.cache import (
    CacheStats,
    DecodedBlockCache,
    active_cache,
    cache_disabled,
    cache_stats,
    clear_cache,
    configure,
    use_cache,
)
from repro.runtime.lazy import IntAffine, LazyStream, Requantize, lazy
from repro.runtime.reduce import (
    chunked_moments,
    parallel_maximum,
    parallel_mean,
    parallel_minimum,
    parallel_std,
    parallel_summary_statistics,
    parallel_variance,
)

__all__ = [
    "DecodedBlockCache",
    "CacheStats",
    "active_cache",
    "configure",
    "cache_disabled",
    "use_cache",
    "clear_cache",
    "cache_stats",
    "LazyStream",
    "IntAffine",
    "Requantize",
    "lazy",
    "chunked_moments",
    "parallel_mean",
    "parallel_variance",
    "parallel_std",
    "parallel_summary_statistics",
    "parallel_minimum",
    "parallel_maximum",
]
