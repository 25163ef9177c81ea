"""Named, versioned compressed-array store with a byte-budget LRU.

The service's resident representation is the *compressed* stream — the
whole point of SZOps-style homomorphic pipelines is that the server never
needs the decompressed array to answer operation and reduction queries.
This module is the shelf those streams live on:

* **Named and versioned** — every ``put`` of a name allocates the next
  version; readers address ``(name, version)`` or "latest".  Versions are
  immutable once stored, which is what makes the micro-batcher's
  single-flight dedup sound: two requests naming the same version are
  provably asking about the same bytes.
* **Checked at the door** — untrusted bytes are admitted only if
  :meth:`SZOpsCompressed.from_bytes` parses them.  That parse is the one
  walk of the stream grammar that ``verify-stream`` reports from too, so a
  corrupt container is a clean :class:`FormatError` carrying its VS rule
  id at PUT time, never a decode surprise at OP time.
* **Byte-budget LRU** — total retained blob bytes are bounded; the least
  recently *used* (read or written) entries are evicted first.  Evicted
  versions are remembered as tombstones so a later GET distinguishes
  "evicted under memory pressure" from "never existed".
* **Reader/writer locking** — lookups take a shared lock; anything that
  mutates the index (insert, LRU touch, evict) takes the exclusive lock.
  The exclusive lock is ``self._lock`` and the class declares
  ``_GUARDED_ATTRS``, so the lock-order pass verifies the discipline
  lexically (LCK001) and sees a single acquisition level (LCK002) — the
  expensive work (parse, fingerprint) happens strictly outside any lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.core.format import SZOpsCompressed

__all__ = ["RWLock", "StoreMiss", "StoreError", "StoredEntry", "CompressedArrayStore"]


class StoreError(ValueError):
    """A stream could not be admitted to the store."""


class StoreMiss(KeyError):
    """The requested (name, version) is not resident.

    ``evicted`` distinguishes an entry dropped by the byte-budget LRU
    from a name/version that never existed.
    """

    def __init__(self, message: str, evicted: bool = False) -> None:
        super().__init__(message)
        self.evicted = evicted

    def __str__(self) -> str:  # KeyError quotes its arg; keep the text clean
        return str(self.args[0])


class RWLock:
    """A writer-preferring reader/writer lock.

    ``with lock:`` (or :meth:`exclusive`) acquires the write side;
    ``with lock.shared():`` acquires the read side.  Readers run
    concurrently; a waiting writer blocks new readers so a stream of
    GETs cannot starve a PUT.  Not reentrant on either side.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # -- write side ---------------------------------------------------------

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    def __enter__(self) -> "RWLock":
        self.acquire_write()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release_write()

    # -- read side ----------------------------------------------------------

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()


@dataclass(frozen=True)
class StoredEntry:
    """One resident version of a named array."""

    name: str
    version: int
    blob: bytes
    container: SZOpsCompressed
    stored_at: float

    @property
    def nbytes(self) -> int:
        return len(self.blob)


class CompressedArrayStore:
    """The server-resident shelf of parsed compressed streams.

    Parameters
    ----------
    byte_budget : total retained blob bytes before LRU eviction kicks in.
    """

    # Lock discipline (verified lexically by `repro.cli lint`'s lockcheck
    # pass): every mutation of these attributes must hold self._lock — the
    # exclusive side of the RWLock.  Shared-side readers never mutate.
    _GUARDED_ATTRS = ("_entries", "_latest", "_tombstones", "_nbytes", "_counters")

    def __init__(self, byte_budget: int = 256 << 20) -> None:
        if byte_budget <= 0:
            raise ValueError(f"byte_budget must be positive, got {byte_budget}")
        self.byte_budget = byte_budget
        self._lock = RWLock()
        #: (name, version) -> StoredEntry, in LRU order (oldest first).
        self._entries: OrderedDict[tuple[str, int], StoredEntry] = OrderedDict()
        #: name -> newest version number ever assigned.
        self._latest: dict[str, int] = {}
        #: (name, version) pairs dropped by the LRU.
        self._tombstones: set[tuple[str, int]] = set()
        self._nbytes = 0
        self._counters = {"puts": 0, "gets": 0, "evictions": 0, "rejects": 0}

    # ------------------------------------------------------------------ write

    def put(self, name: str, blob: bytes) -> int:
        """Admit a serialized stream as the next version of ``name``.

        Parsing runs *outside* the lock — an expensive PUT never blocks
        concurrent readers — and raises :class:`FormatError` (from
        :meth:`SZOpsCompressed.from_bytes`) on damage.
        """
        if not name:
            raise StoreError("array name must be non-empty")
        if len(blob) > self.byte_budget:
            with self._lock:
                self._counters["puts"] += 1
                self._counters["rejects"] += 1
            raise StoreError(
                f"stream of {len(blob)} bytes exceeds the store's byte "
                f"budget of {self.byte_budget}"
            )
        try:
            container = SZOpsCompressed.from_bytes(blob)
        except Exception:
            with self._lock:
                self._counters["puts"] += 1
                self._counters["rejects"] += 1
            raise
        # Prime the container's memoised digest outside the lock: every
        # later cache lookup and batch key reads it in O(1).
        container.content_fingerprint()
        entry_blob = bytes(blob)
        now = time.monotonic()
        with self._lock:
            self._counters["puts"] += 1
            version = self._latest.get(name, 0) + 1
            self._latest[name] = version
            entry = StoredEntry(
                name=name,
                version=version,
                blob=entry_blob,
                container=container,
                stored_at=now,
            )
            self._entries[(name, version)] = entry
            self._nbytes += entry.nbytes
            self._evict_locked(keep=(name, version))
        return version

    def _evict_locked(self, keep: tuple[str, int] | None = None) -> None:
        """Drop LRU entries until the byte budget holds (caller holds lock)."""
        while self._nbytes > self.byte_budget and len(self._entries) > 1:
            key = next(iter(self._entries))
            if key == keep:
                # The newest insert is never evicted by its own put; move
                # on to the next-oldest entry (there is one: len > 1).
                keys = iter(self._entries)
                next(keys)
                key = next(keys)
            entry = self._entries.pop(key)
            self._nbytes -= entry.nbytes
            self._tombstones.add(key)
            self._counters["evictions"] += 1

    # ------------------------------------------------------------------ read

    def _resolve_version(self, name: str, version: int | None) -> int:
        if version is not None and version >= 0:
            return version
        latest = self._latest.get(name)
        if latest is None:
            raise StoreMiss(f"unknown array {name!r}")
        return latest

    def get(self, name: str, version: int | None = None) -> StoredEntry:
        """Fetch a resident entry (``version`` None/negative = latest).

        Touches the LRU, so it takes the exclusive lock — but only for
        the dict lookup and recency bump; the blob itself is immutable
        and handed out by reference.
        """
        with self._lock:
            self._counters["gets"] += 1
            resolved = self._resolve_version(name, version)
            key = (name, resolved)
            entry = self._entries.get(key)
            if entry is None:
                if key in self._tombstones:
                    raise StoreMiss(
                        f"array {name!r} version {resolved} was evicted "
                        "under byte-budget pressure",
                        evicted=True,
                    )
                raise StoreMiss(f"unknown array {name!r} version {resolved}")
            self._entries.move_to_end(key)
            return entry

    def container(self, name: str, version: int | None = None) -> SZOpsCompressed:
        """The parsed container of a resident entry."""
        return self.get(name, version).container

    # ------------------------------------------------------------------ introspection

    def __contains__(self, name: str) -> bool:
        with self._lock.shared():
            return name in self._latest

    def __len__(self) -> int:
        with self._lock.shared():
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock.shared():
            return self._nbytes

    def names(self) -> list[str]:
        """Every name ever stored (latest versions may be evicted)."""
        with self._lock.shared():
            return sorted(self._latest)

    def snapshot(self) -> dict[str, object]:
        """JSON-able operational summary for STATS/HEALTH."""
        with self._lock.shared():
            return {
                "arrays": len(self._latest),
                "resident_versions": len(self._entries),
                "bytes_used": self._nbytes,
                "byte_budget": self.byte_budget,
                "evictions": self._counters["evictions"],
                "puts": self._counters["puts"],
                "gets": self._counters["gets"],
                "rejects": self._counters["rejects"],
            }
