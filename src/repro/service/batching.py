"""Micro-batching: coalesce concurrent op requests into fused executions.

Under load, a compressed-array server sees bursts of scalar-op and
reduction requests against the same hot arrays — the classic serving
shape (dynamic batching in model servers exists for exactly this
reason).  Executing each request independently pays a per-request
executor round-trip and, for pointwise chains, a per-request re-encode.
This module closes both gaps without giving up the eager semantics:

* **Single-flight dedup** — requests whose *batch key* (array content
  fingerprint + version + exact chain) matches an in-flight computation
  attach to its future instead of recomputing.  Content fingerprints
  make this sound: equal key ⇒ equal bytes in, equal chain ⇒ equal
  bytes out.  One decode + one encode serves the whole flight.  The
  fingerprint is the stored container's memoised digest, so a key is
  built without hashing the stream.
* **Same-array grouping** — distinct chains over the same array that
  arrive inside one batching window execute in a single executor job,
  back to back, so the first chain's decode (kept by the decoded-block
  cache of :mod:`repro.runtime.cache`) is warm for the rest, and the
  event loop pays one ``run_in_executor`` hop per array instead of one
  per request.

Each individual computation still goes through the PR-1 fusion runtime
(:class:`repro.runtime.lazy.LazyStream`), whose results are bit-identical
to the eager :func:`repro.core.ops.apply_chain` path — batching changes
*when and where* work runs, never *what* is computed.  A failure inside
one flight fails only the requests attached to that flight.

The batcher is event-loop-confined: ``submit`` must be called from the
owning loop.  A drain hands each array's flights to the pool as one job
and does not wait for it, so flights on different arrays never wait for
each other.  Flights on one array still run one after another: a flight
whose array already has a job executing stays queued until that job
finishes and then drains, so it finds the first job's decode cached.  A
batching window opens only when, at drain start, more than one queued
flight can drain (its array has no job executing).  A lone request
drains at the next loop turn, after the submits of the current one
(which still dedup and group), so it never waits the window, however
busy other arrays are.  The window (default 2 ms) bounds added latency;
a window of 0 still dedups identical concurrent requests but groups only
what is already queued.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import Executor as _PoolExecutor
from typing import Any, Callable

from repro.service.telemetry import Telemetry

__all__ = ["BatchKey", "MicroBatcher"]

#: Identity of one computation: (array fingerprint, version tag, chain).
#: Two requests with equal keys are guaranteed byte-identical answers.
BatchKey = tuple[str, ...]


class _Flight:
    """One unique computation and the requests riding on it."""

    __slots__ = ("key", "group", "compute", "future", "riders")

    def __init__(
        self,
        key: BatchKey,
        group: str,
        compute: Callable[[], Any],
        future: "asyncio.Future[Any]",
    ) -> None:
        self.key = key
        self.group = group
        self.compute = compute
        self.future = future
        #: How many requests share this flight (1 = no dedup happened).
        self.riders = 1


class MicroBatcher:
    """Coalesce concurrent compute requests behind one executor pass.

    Parameters
    ----------
    pool : the ``concurrent.futures`` executor heavy work is offloaded
        to (the server's kernel pool).
    window_s : how long a drain waits for company when more than one
        queued flight can drain (a lone one drains at the next loop turn).
    max_batch : hard cap on flights drained per batch (backpressure on
        pathological bursts; excess flights roll into the next batch).
    telemetry : optional sink for batch/dedup counters.
    """

    def __init__(
        self,
        pool: _PoolExecutor,
        window_s: float = 0.002,
        max_batch: int = 64,
        telemetry: Telemetry | None = None,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be non-negative, got {window_s}")
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        self.pool = pool
        self.window_s = window_s
        self.max_batch = max_batch
        self.telemetry = telemetry
        #: key -> in-flight computation (pending or executing).
        self._flights: dict[BatchKey, _Flight] = {}
        #: keys queued for the next drain, in arrival order.
        self._queued: list[BatchKey] = []
        self._drain_task: "asyncio.Task[None] | None" = None
        #: array (group) -> its executing job; one per array at a time.
        self._busy: dict[str, "asyncio.Future[None]"] = {}

    # ------------------------------------------------------------------ api

    @property
    def pending(self) -> int:
        """Flights queued but not yet drained (for tests and gauges)."""
        return len(self._queued)

    async def submit(
        self, key: BatchKey, group: str, compute: Callable[[], Any]
    ) -> Any:
        """Run ``compute`` (or join an identical in-flight run); await result.

        ``key`` identifies the computation (dedup granularity); ``group``
        identifies the array (grouping granularity) — flights sharing a
        group drain in one executor job, and never beside another job on
        the same group, so they share the decoded-block cache line while
        it is certainly warm.
        """
        loop = asyncio.get_running_loop()
        flight = self._flights.get(key)
        if flight is not None:
            flight.riders += 1
            if self.telemetry is not None:
                self.telemetry.increment("batch_dedup_hits")
            return await asyncio.shield(flight.future)
        flight = _Flight(key, group, compute, loop.create_future())
        self._flights[key] = flight
        self._queued.append(key)
        if self._drain_task is None or self._drain_task.done():
            self._schedule_drain()
        return await asyncio.shield(flight.future)

    async def flush(self) -> None:
        """Drain everything queued and wait for every executing job.

        Used by graceful shutdown: when it returns, every flight admitted
        so far has been computed.
        """
        while True:
            task = self._drain_task
            if task is not None and not task.done():
                await task
            elif self._ready():
                self._drain_batch()
            elif self._busy:
                # Flights still queued wait for their array's job.
                await asyncio.wait(set(self._busy.values()))
            else:
                return

    # ------------------------------------------------------------------ internals

    def _ready(self) -> list[BatchKey]:
        """Queued keys whose array has no job executing, in arrival order."""
        return [k for k in self._queued if self._flights[k].group not in self._busy]

    async def _drain_after_window(self) -> None:
        # Wait for company only when this drain would not be a lone one.
        if self.window_s and len(self._ready()) > 1:
            await asyncio.sleep(self.window_s)
        self._drain_batch()
        # Flights beyond max_batch drain next; flights held behind their
        # array's job drain when it finishes (_job_done).
        if self._ready():
            self._schedule_drain()

    def _schedule_drain(self) -> None:
        loop = asyncio.get_running_loop()
        self._drain_task = loop.create_task(self._drain_after_window())

    def _drain_batch(self) -> None:
        """Hand the ready flights to the pool, one job per array.

        Does not wait for the jobs: a later submit on another array
        drains on its own, whatever is still executing (no head-of-line
        blocking across arrays).
        """
        keys = self._ready()[: self.max_batch]
        if not keys:
            return
        drained = set(keys)
        self._queued = [k for k in self._queued if k not in drained]
        # Group flights by array so each group is one executor job.
        groups: dict[str, list[_Flight]] = {}
        for key in keys:
            flight = self._flights[key]
            groups.setdefault(flight.group, []).append(flight)
        if self.telemetry is not None:
            self.telemetry.increment("batches")
            self.telemetry.increment("batched_flights", len(keys))
            self.telemetry.increment(
                "batched_requests", sum(f.riders for g in groups.values() for f in g)
            )
        loop = asyncio.get_running_loop()
        for group, flights in groups.items():
            job = loop.run_in_executor(self.pool, self._run_group, flights)
            self._busy[group] = job
            job.add_done_callback(functools.partial(self._job_done, group, flights))

    def _job_done(
        self, group: str, flights: list[_Flight], job: "asyncio.Future[None]"
    ) -> None:
        del self._busy[group]
        # Resolved flights retired themselves; this catches the ones a
        # cancelled job left unresolved.
        for flight in flights:
            self._retire(flight)
        # Flights held behind this job drain now, with its decode cached.
        if self._ready() and (self._drain_task is None or self._drain_task.done()):
            self._schedule_drain()

    def _retire(self, flight: _Flight) -> None:
        """Stop ``flight`` taking riders, unless a newer flight owns its key."""
        if self._flights.get(flight.key) is flight:
            del self._flights[flight.key]

    def _run_group(self, flights: list[_Flight]) -> None:
        """Execute one array's flights back to back (worker thread)."""
        for flight in flights:
            try:
                result = flight.compute()
            except BaseException as exc:  # delivered to the waiters, not lost
                self._resolve(flight, None, exc)
            else:
                self._resolve(flight, result, None)

    def _resolve(
        self, flight: _Flight, result: Any, exc: BaseException | None
    ) -> None:
        loop = flight.future.get_loop()

        def _set() -> None:
            # Retire on resolution, not when the whole batch finishes: an
            # identical request arriving after this point starts a new
            # flight instead of riding a finished one.
            self._retire(flight)
            if flight.future.cancelled():
                return
            if exc is not None:
                flight.future.set_exception(exc)
            else:
                flight.future.set_result(result)

        loop.call_soon_threadsafe(_set)
