"""Decoded-block cache: memoize the BF⁻¹ + Lorenzo⁻¹ partial decode.

Figure 5 of the paper breaks the cost of every partially-decompressed
operation into decode + kernel + (re)encode, and the decode dominates.  A
chain of operations on the *same* stream therefore pays the decode once per
operation — ``std`` alone decodes twice (it calls ``variance`` which calls
``mean``'s machinery).  This module keeps a process-wide LRU of
:class:`~repro.core.ops._partial.StoredBlocks`, keyed by the stream's
content fingerprint (:meth:`SZOpsCompressed.content_fingerprint`), so every
operation after the first reuses the decoded quantized view.

The exact moments a reduction reads (:class:`QuantizedMoments`, five
ints) are kept apart from the bins: :meth:`DecodedBlockCache.get_moments`
memoises them on the container itself, so they outlive the LRU entry and
reducing an evicted stream again decodes nothing.

Correctness model
-----------------
* Containers are immutable: every plane is read-only from construction
  on, so a key can never go stale.  The key hashes the *content* of all
  four planes plus the header, so two containers with equal bytes (the
  store's copy and a parsed copy of the same stream, say) share an entry.
  Each container computes its digest once and keeps it, so a hit costs a
  field read and a dict lookup, not a pass over the stream.
* Cached arrays are marked read-only before insertion.  All in-tree
  consumers (reductions, scalar multiply, multivariate ops, collectives)
  treat :class:`StoredBlocks` as immutable; external writers get a loud
  ``ValueError`` from NumPy instead of silently poisoning the cache.
* The cache is bounded both by entry count and by total bytes; eviction is
  least-recently-used.
* A container's moments memo lives as long as the container and carries
  the token of the cache that wrote it.  It is served only while that
  token is the active cache's current one: :meth:`DecodedBlockCache.clear`
  (and so :func:`clear_cache`) replaces the token, another cache scoped
  with :func:`use_cache` has its own, and under :func:`cache_disabled`
  the memo is neither read nor written, so every reduction decodes.
  Copies (pickle, ``dataclasses.replace``, ``from_bytes``) start without
  a memo.
* :func:`memo_only` admits only O(1) memo reads on the current thread.
  There :func:`~repro.core.ops._partial.stored_moments` serves a memo
  valid under the active cache's token through the one hit path,
  :meth:`DecodedBlockCache.get_moments` (one hit, LRU refresh), and
  raises :class:`MemoMiss` in every other case, counting nothing;
  :func:`~repro.core.ops._partial.stored_quantized` always raises it.
  Every decode path starts with :func:`ensure_may_decode`, so no decode
  can run inside the scope, and the token is checked under the cache's
  lock in the same step that reads the memo: a concurrent
  :func:`clear_cache` lands either before (a miss) or after (the old
  memo was exact when read).  The service event loop answers memo-hit
  reductions this way (``repro.service.server``).

The cache is **enabled by default** (the ROADMAP's caching item).  Disable
it globally with :func:`configure` or locally with :func:`cache_disabled`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import StoredBlocks, decode_stored_blocks

__all__ = [
    "DecodedBlockCache",
    "CacheStats",
    "active_cache",
    "configure",
    "cache_disabled",
    "use_cache",
    "clear_cache",
    "cache_stats",
    "memo_only",
    "ensure_may_decode",
    "MemoMiss",
]


@dataclass
class CacheStats:
    """Counters exposed for tests, the CLI, and the benchmark harness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MemoMiss(Exception):
    """Signal of :func:`memo_only`: the answer is not an O(1) memo read."""


def _freeze(blocks: StoredBlocks) -> int:
    """Mark every array of ``blocks`` read-only; returns their total bytes."""
    arrays = [getattr(blocks, f.name) for f in fields(blocks)]
    for arr in arrays:
        arr.setflags(write=False)
    return sum(arr.nbytes for arr in arrays)


class DecodedBlockCache:
    """Thread-safe LRU over decoded :class:`StoredBlocks`.

    Parameters
    ----------
    max_entries : maximum number of cached streams (LRU beyond that).
    max_bytes : total decoded-array budget; entries larger than the whole
        budget are returned uncached rather than thrashing the LRU.
    """

    # Lock discipline (verified lexically by `repro.cli lint`'s lockcheck
    # pass): every mutation of these attributes must hold self._lock; the
    # `_evict_locked` naming convention marks helpers that require the
    # caller to already hold it.
    _GUARDED_ATTRS = ("_entries", "_nbytes", "_token", "stats")

    def __init__(self, max_entries: int = 32, max_bytes: int = 256 << 20) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[str, tuple[StoredBlocks, int]] = OrderedDict()
        self._nbytes = 0
        #: Identifies the moments memos this cache may serve; ``clear``
        #: replaces it, which invalidates every memo written before.
        self._token = object()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ core

    def get_blocks(self, c: SZOpsCompressed) -> StoredBlocks:
        """Return the decoded quantized view of ``c``, decoding at most once."""
        ensure_may_decode()
        key = c.content_fingerprint()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[0]
            self.stats.misses += 1
        blocks = decode_stored_blocks(c)
        size = _freeze(blocks)
        if size > self.max_bytes:
            return blocks
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (blocks, size)
                self._nbytes += size
                self._evict_locked()
        return blocks

    def get_moments(self, c: SZOpsCompressed) -> QuantizedMoments:
        """Exact moments of ``c``, memoised on ``c`` under this cache's token.

        A memo hit counts as a hit and, like a :meth:`get_blocks` hit,
        moves ``c``'s LRU entry (if its bins are still cached) to the
        most-recent end; a miss reads the moments off :meth:`get_blocks`,
        so the bins are cached for the next pointwise op as before.  Under
        :func:`memo_only` that miss raises :class:`MemoMiss` instead.
        """
        memo = c._moments_memo
        with self._lock:
            token = self._token
            if memo is not None and memo[0] is token:
                # A memo is only written after get_blocks fingerprinted c,
                # so this is a field read, not a pass over the stream.
                key = c.content_fingerprint()
                if key in self._entries:
                    self._entries.move_to_end(key)
                self.stats.hits += 1
                return memo[1]
        moments = self.get_blocks(c).moments
        object.__setattr__(c, "_moments_memo", (token, moments))
        return moments

    def _evict_locked(self) -> None:
        while self._entries and (
            len(self._entries) > self.max_entries or self._nbytes > self.max_bytes
        ):
            _, (_, size) = self._entries.popitem(last=False)
            self._nbytes -= size
            self.stats.evictions += 1

    # ------------------------------------------------------------------ admin

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, c: SZOpsCompressed) -> bool:
        return c.content_fingerprint() in self._entries

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._token = object()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecodedBlockCache(entries={len(self._entries)}/{self.max_entries}, "
            f"bytes={self._nbytes}/{self.max_bytes}, hits={self.stats.hits}, "
            f"misses={self.stats.misses})"
        )


# ---------------------------------------------------------------------------
# process-wide active cache
# ---------------------------------------------------------------------------

_default_cache = DecodedBlockCache()


class _ThreadState(threading.local):
    """Per-thread scope: the :func:`use_cache` stack and the :func:`memo_only` flag.

    Both are set on every thread's first access, so reading them is a
    plain attribute read, never ``getattr``'s missing-attribute path
    (about 0.5 µs, on every decode-path check).
    """

    def __init__(self) -> None:
        self.stack: list[DecodedBlockCache | None] = []
        self.memo_only = False


_local = _ThreadState()


def active_cache() -> DecodedBlockCache | None:
    """The cache ``stored_quantized`` consults, or ``None`` when disabled."""
    stack = _local.stack
    if stack:
        return stack[-1]
    return _default_cache


def configure(
    enabled: bool = True,
    max_entries: int | None = None,
    max_bytes: int | None = None,
) -> DecodedBlockCache | None:
    """Replace the process-default cache (or disable it with ``enabled=False``)."""
    global _default_cache
    if not enabled:
        _default_cache = None
        return None
    kwargs = {}
    if max_entries is not None:
        kwargs["max_entries"] = max_entries
    if max_bytes is not None:
        kwargs["max_bytes"] = max_bytes
    _default_cache = DecodedBlockCache(**kwargs)
    return _default_cache


@contextmanager
def use_cache(
    cache: DecodedBlockCache | None,
) -> Iterator[DecodedBlockCache | None]:
    """Scope a specific cache (or ``None``) to the current thread."""
    stack = _local.stack
    stack.append(cache)
    try:
        yield cache
    finally:
        stack.pop()


@contextmanager
def memo_only() -> Iterator[None]:
    """Admit only O(1) moments-memo reads on the current thread.

    Inside the block every request for decoded bins, and every moments
    request that is not a memo hit under the active cache, raises
    :class:`MemoMiss` (see the correctness model above).
    """
    outer = _local.memo_only
    _local.memo_only = True
    try:
        yield
    finally:
        _local.memo_only = outer


def ensure_may_decode() -> None:
    """Raise :class:`MemoMiss` inside :func:`memo_only`.

    Every path to a decode calls it first: :meth:`DecodedBlockCache.get_blocks`
    (before it counts a lookup) and the cache-disabled branches of
    :func:`~repro.core.ops._partial.stored_quantized` and
    :func:`~repro.core.ops._partial.stored_moments`.
    """
    if _local.memo_only:
        raise MemoMiss


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Run a block with decoded-block caching off (current thread only)."""
    with use_cache(None):
        yield


def clear_cache() -> None:
    """Drop every entry of the active cache and invalidate its moments memos.

    A no-op when the cache is disabled.
    """
    cache = active_cache()
    if cache is not None:
        cache.clear()


def cache_stats() -> CacheStats | None:
    """Counters of the active cache, or ``None`` when disabled."""
    cache = active_cache()
    return cache.stats if cache is not None else None
