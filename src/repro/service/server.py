"""The asyncio compressed-array op server.

One :class:`ServiceServer` owns a :class:`CompressedArrayStore`, a
kernel thread pool, an optional PR-3 execution backend for chunked
reductions, a :class:`MicroBatcher`, and a :class:`Telemetry` instance,
and serves the six-endpoint protocol of :mod:`repro.service.protocol`
over TCP.  The event loop never runs a kernel: PUT verification/parsing,
chain materialization, and reductions are all offloaded through
``loop.run_in_executor`` onto the kernel pool, whose jobs route their
chunked partial sums through the configured
:class:`~repro.parallel.backends.ExecutionBackend`.  The one exception is
an O(1) read: a REDUCE (or a cluster node's PREDUCE) whose exact moments
are already memoised on the stored container is answered on the loop,
under :func:`~repro.runtime.cache.memo_only`, which raises instead of
decoding, so nothing that reads the stream can run there.

Operational semantics (the parts a client must know):

* **Backpressure** — at most ``max_pending`` requests may be admitted
  (queued + executing) at once; request ``max_pending + 1`` gets an
  immediate ``BUSY`` reply instead of unbounded queueing.  The client
  retries; the server's memory does not grow with offered load.
* **Deadlines** — every request runs under ``min(server default, client
  deadline)``; expiry produces a ``TIMEOUT`` reply.  The underlying
  kernel (if already running on the pool) is not interrupted — Python
  threads cannot be killed — but its slot is released only when it
  finishes, so a flood of doomed requests still sheds as ``BUSY``.
* **Error containment** — malformed frames, corrupt containers, unknown
  arrays, and invalid chains produce an ``ERROR`` reply; only a broken
  frame *boundary* (unreadable length prefix, oversized declaration)
  closes the connection, because byte sync is unrecoverable.  Nothing a
  client sends kills the accept loop.
* **Graceful shutdown** — :meth:`ServiceServer.shutdown` stops accepting,
  flushes the batcher, waits for in-flight requests to reply (bounded by
  ``drain_timeout_s``), then tears down the pool and backend.  The CLI
  wires SIGTERM/SIGINT to it, so an orchestrator's stop signal drains
  instead of dropping requests mid-batch.

REDUCE requests never materialize the decompressed array: they fold the
pointwise prefix into quantized block partials via
:class:`~repro.runtime.lazy.LazyStream` (at most one decode, zero encodes
— the test suite pins this with a decode spy).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from typing import Any

from repro.core.errors import SZOpsError
from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops.dispatch import CHAIN_REDUCTIONS, OPERATIONS, normalize_chain
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.runtime.cache import MemoMiss, memo_only
from repro.runtime.lazy import LazyStream
from repro.service import protocol
from repro.service.batching import BatchKey, MicroBatcher
from repro.service.protocol import (
    BodyKind,
    FrameError,
    GetRequest,
    HealthRequest,
    Opcode,
    OpRequest,
    PutRequest,
    ReduceRequest,
    Reply,
    Request,
    StatsRequest,
    Status,
    Step,
)
from repro.service.store import CompressedArrayStore, StoreError, StoreMiss
from repro.service.telemetry import Telemetry

__all__ = ["ServiceConfig", "ServiceServer", "ThreadedServer"]

#: Exceptions converted into ERROR replies (everything else is reported
#: as an internal error, also via ERROR — the loop survives regardless).
_CLIENT_ERRORS = (SZOpsError, StoreError, StoreMiss, FrameError, ValueError, KeyError)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one server instance (see docs/SERVICE.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; ServiceServer.port reports the bound one
    #: Execution backend for chunked reduction partials ("serial" keeps
    #: them inline on the kernel pool thread).
    backend: str = "serial"
    n_workers: int = 1
    #: Kernel pool width (defaults to n_workers, min 2).
    pool_threads: int = 0
    byte_budget: int = 256 << 20
    #: Admission cap: queued + executing requests beyond this shed as BUSY.
    max_pending: int = 64
    #: Server-side default deadline per request.
    request_timeout_s: float = 30.0
    #: Micro-batching window, waited only while more than one queued
    #: request can drain (its array has no job executing); 0 disables
    #: coalescing delay but keeps dedup.
    batch_window_s: float = 0.002
    batching: bool = True
    max_frame: int = protocol.DEFAULT_MAX_FRAME
    #: How long shutdown waits for in-flight requests to finish.
    drain_timeout_s: float = 10.0
    #: Cap on one reply write's ``drain()``: a peer that stops reading
    #: (zero receive window) otherwise parks the sending coroutine —
    #: and the connection's request slot — forever.
    send_timeout_s: float = 30.0
    #: Ops/test knob: artificial kernel delay per OP/REDUCE, for load and
    #: drain drills (exposed as ``repro serve --debug-delay-s``).
    debug_delay_s: float = 0.0


def _fuse(container: SZOpsCompressed, steps: tuple[Step, ...]) -> LazyStream:
    """The request's pointwise steps as one pending fused transform."""
    chain = LazyStream(container)
    for name, scalar in (s.as_pair() for s in steps):
        chain = chain.apply(name, scalar)
    return chain


def _materialize_chain(
    container: SZOpsCompressed, steps: tuple[Step, ...]
) -> SZOpsCompressed:
    """Fused pointwise chain -> new container (one decode, one encode)."""
    return _fuse(container, steps).materialize()


def _validate_pointwise(steps: tuple[Step, ...]) -> None:
    """Reject OP chains that are not purely fusable pointwise operations."""
    if not steps:
        raise FrameError("OP requires at least one chain step")
    for step in steps:
        if step.name in CHAIN_REDUCTIONS:
            raise FrameError(
                f"step {step.name!r} is a reduction; use the REDUCE endpoint"
            )
    # Arity/name validation with the same diagnostics as the CLI chain path.
    normalize_chain([s.as_pair() for s in steps])
    for step in steps:
        if OPERATIONS[step.name].result != "compression":
            raise FrameError(f"step {step.name!r} does not produce a stream")


class ServiceServer:
    """The long-running compressed-array op server (asyncio, one loop)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.store = CompressedArrayStore(byte_budget=cfg.byte_budget)
        self.telemetry = Telemetry()
        pool_threads = cfg.pool_threads or max(2, cfg.n_workers)
        self.pool = ThreadPoolExecutor(
            max_workers=pool_threads, thread_name_prefix="repro-service"
        )
        #: Chunked-reduction backend; None keeps reductions single-chunk.
        self.backend: ExecutionBackend | None = (
            get_backend(cfg.backend, cfg.n_workers) if cfg.n_workers > 1 else None
        )
        self.batcher = MicroBatcher(
            self.pool,
            window_s=cfg.batch_window_s,
            telemetry=self.telemetry,
        )
        self._server: asyncio.AbstractServer | None = None
        self._inflight = 0
        self._active: set["asyncio.Task[None]"] = set()
        #: Connection-handler tasks; shutdown cancels the ones still parked
        #: on a read so none outlives the loop.
        self._connections: set["asyncio.Task[Any]"] = set()
        self._closing = False
        self.port: int = cfg.port

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections."""
        cfg = self.config
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = int(sockets[0].getsockname()[1])

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            return

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, release resources."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self.batcher.flush(), self.config.drain_timeout_s)
        except asyncio.TimeoutError:
            self.telemetry.increment("drain_timeouts")
        if self._active:
            _done, pending = await asyncio.wait(
                set(self._active), timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
        # In-flight requests have replied (or been cancelled); handlers left
        # are idle connections parked in readexactly.  Cancel and await them
        # so none is destroyed pending when the loop closes.
        connections = set(self._connections)
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        # Pool/backend teardown joins worker threads: blocking calls that
        # must not run on the event loop (a sibling server on the same
        # loop would stall mid-request).  to_thread, not run_in_executor
        # on self.pool — the pool cannot run the job that joins itself.
        await asyncio.to_thread(self.pool.shutdown, True)
        if self.backend is not None:
            await asyncio.to_thread(self.backend.close)

    # ------------------------------------------------------------------ connection loop

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        max_frame = self.config.max_frame
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        try:
            while not self._closing:
                try:
                    header = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # clean or mid-header disconnect: just drop it
                try:
                    length = protocol.split_frame(header, max_frame)
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    # Frame truncated mid-payload: byte sync is gone, so
                    # reply (best effort) and close.
                    await self._send(
                        writer,
                        Reply(
                            status=Status.ERROR,
                            kind=BodyKind.MESSAGE,
                            message="truncated frame: connection out of sync",
                        ),
                    )
                    break
                except FrameError as exc:
                    # The declared length itself is hostile; same story.
                    await self._send(
                        writer,
                        Reply(
                            status=Status.ERROR,
                            kind=BodyKind.MESSAGE,
                            message=str(exc),
                        ),
                    )
                    break
                task = asyncio.ensure_future(self._serve_request(writer, payload))
                self._active.add(task)
                task.add_done_callback(self._active.discard)
                # One request at a time per connection: replies stay in
                # request order and a slow client cannot interleave frames.
                await task
        finally:
            if me is not None:
                self._connections.discard(me)
            with suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter, reply: Reply) -> None:
        try:
            writer.write(
                protocol.pack_frame(
                    protocol.encode_reply(reply), self.config.max_frame
                )
            )
            # drain() has no intrinsic bound: a peer advertising a zero
            # receive window parks this coroutine (and the connection's
            # serve slot) forever, escaping the request deadline.
            await asyncio.wait_for(writer.drain(), self.config.send_timeout_s)
        except asyncio.TimeoutError:
            self.telemetry.increment("send_timeouts")
            writer.close()  # byte sync is gone; the reader loop unwinds
        except (ConnectionError, OSError):
            self.telemetry.increment("send_failures")  # peer went away

    # ------------------------------------------------------------------ request handling

    async def _serve_request(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        t0 = time.perf_counter()
        endpoint = "malformed"
        try:
            request, deadline_ms, epoch = protocol.decode_request(payload)
        except FrameError as exc:
            self.telemetry.record_request("malformed", "ERROR", 0.0)
            await self._send(
                writer,
                Reply(status=Status.ERROR, kind=BodyKind.MESSAGE, message=str(exc)),
            )
            return
        endpoint = Opcode(request.opcode).name
        if self._inflight >= self.config.max_pending:
            self.telemetry.record_request(endpoint, "BUSY", 0.0)
            await self._send(
                writer,
                Reply(
                    status=Status.BUSY,
                    kind=BodyKind.MESSAGE,
                    message=(
                        f"admission queue full ({self.config.max_pending} "
                        "in flight); retry with backoff"
                    ),
                ),
            )
            return
        self._inflight += 1
        self.telemetry.set_gauge("inflight", float(self._inflight))
        timeout = self.config.request_timeout_s
        if deadline_ms:
            timeout = min(timeout, deadline_ms / 1e3)
        try:
            reply = await asyncio.wait_for(self._dispatch(request, epoch), timeout)
        except asyncio.TimeoutError:
            reply = Reply(
                status=Status.TIMEOUT,
                kind=BodyKind.MESSAGE,
                message=f"request exceeded its deadline of {timeout:.3f}s",
            )
        except _CLIENT_ERRORS as exc:
            reply = Reply(
                status=Status.ERROR, kind=BodyKind.MESSAGE, message=str(exc)
            )
        except Exception as exc:  # containment: the loop must survive bugs
            self.telemetry.increment("internal_errors")
            reply = Reply(
                status=Status.ERROR,
                kind=BodyKind.MESSAGE,
                message=f"internal error: {type(exc).__name__}: {exc}",
            )
        finally:
            self._inflight -= 1
            self.telemetry.set_gauge("inflight", float(self._inflight))
        self.telemetry.record_request(
            endpoint, reply.status.name, time.perf_counter() - t0
        )
        await self._send(writer, reply)

    async def _dispatch(self, request: Request, epoch: int = 0) -> Reply:
        if isinstance(request, PutRequest):
            return await self._handle_put(request)
        if isinstance(request, GetRequest):
            return self._handle_get(request)
        if isinstance(request, OpRequest):
            return await self._handle_op(request)
        if isinstance(request, ReduceRequest):
            return await self._handle_reduce(request)
        if isinstance(request, StatsRequest):
            return self._handle_stats()
        if isinstance(request, HealthRequest):
            return self._handle_health()
        return await self._dispatch_extra(request, epoch)

    async def _dispatch_extra(self, request: Request, epoch: int) -> Reply:
        """Hook for subclasses serving post-v1 opcodes (cluster nodes)."""
        return Reply(
            status=Status.ERROR,
            kind=BodyKind.MESSAGE,
            message=(
                f"opcode {Opcode(request.opcode).name} is only served by "
                "cluster nodes (repro.cluster)"
            ),
        )

    # -- endpoints ----------------------------------------------------------

    async def _handle_put(self, request: PutRequest) -> Reply:
        loop = asyncio.get_running_loop()
        # Parse + fingerprint + insert on the pool: both read the whole
        # payload and must not stall the event loop.
        version = await loop.run_in_executor(
            self.pool, self.store.put, request.name, request.blob
        )
        return Reply(status=Status.OK, kind=BodyKind.STORED, version=version)

    def _handle_get(self, request: GetRequest) -> Reply:
        entry = self.store.get(request.name, request.version)
        return Reply(
            status=Status.OK,
            kind=BodyKind.BLOB,
            version=entry.version,
            blob=entry.blob,
        )

    def _batch_key(
        self, fingerprint: str, steps: tuple[Step, ...], tail: str
    ) -> BatchKey:
        parts: list[str] = [fingerprint]
        for step in steps:
            parts.append(step.name)
            parts.append(repr(step.scalar))
        parts.append(tail)
        return tuple(parts)

    async def _handle_op(self, request: OpRequest) -> Reply:
        _validate_pointwise(request.steps)
        entry = self.store.get(request.name, request.version)
        delay = self.config.debug_delay_s

        def compute() -> bytes:
            if delay:
                time.sleep(delay)
            return _materialize_chain(entry.container, request.steps).to_bytes()

        if self.config.batching:
            fingerprint = entry.container.content_fingerprint()
            key = self._batch_key(fingerprint, request.steps, "op")
            blob = await self.batcher.submit(key, fingerprint, compute)
        else:
            loop = asyncio.get_running_loop()
            blob = await loop.run_in_executor(self.pool, compute)
        if request.result_name:
            loop = asyncio.get_running_loop()
            version = await loop.run_in_executor(
                self.pool, self.store.put, request.result_name, blob
            )
            return Reply(status=Status.OK, kind=BodyKind.STORED, version=version)
        return Reply(
            status=Status.OK, kind=BodyKind.BLOB, version=entry.version, blob=blob
        )

    async def _handle_reduce(self, request: ReduceRequest) -> Reply:
        if request.reduction not in CHAIN_REDUCTIONS:
            raise FrameError(
                f"unknown reduction {request.reduction!r}; valid: "
                f"{', '.join(CHAIN_REDUCTIONS)}"
            )
        if request.steps:
            _validate_pointwise(request.steps)
        entry = self.store.get(request.name, request.version)
        chain = _fuse(entry.container, request.steps)
        moments = self._memo_moments(chain)
        if moments is not None:
            value = moments.finish(request.reduction, chain.eps)
            return Reply(status=Status.OK, kind=BodyKind.VALUE, value=value)
        backend = self.backend
        delay = self.config.debug_delay_s

        def compute() -> float:
            if delay:
                time.sleep(delay)
            return getattr(chain, request.reduction)(executor=backend)

        if self.config.batching:
            fingerprint = entry.container.content_fingerprint()
            key = self._batch_key(
                fingerprint, request.steps, f"reduce:{request.reduction}"
            )
            value = await self.batcher.submit(key, fingerprint, compute)
        else:
            loop = asyncio.get_running_loop()
            value = await loop.run_in_executor(self.pool, compute)
        return Reply(status=Status.OK, kind=BodyKind.VALUE, value=float(value))

    def _memo_moments(self, chain: LazyStream) -> QuantizedMoments | None:
        """``chain``'s exact moments when they are an O(1) memo read.

        The one kind of work the event loop runs itself: under
        :func:`~repro.runtime.cache.memo_only` the call either reads the
        base stream's moments memo (mapped through a negate/add/sub
        suffix) or raises before anything decodes.  ``None`` sends the
        request to the kernel pool as before: a cold stream, a
        ``Requantize`` in the chain, the cache disabled, a chunked
        backend (``n_workers > 1``) or ``debug_delay_s`` (the drills
        keep their delay).
        """
        if self.backend is not None or self.config.debug_delay_s:
            return None
        with memo_only():
            try:
                return chain.quantized_moments()
            except MemoMiss:
                return None

    def _identity(self) -> dict[str, object]:
        """The ops-facing identity block shared by STATS and HEALTH."""
        cfg = self.config
        store = self.store.snapshot()
        return {
            "status": "draining" if self._closing else "ok",
            "uptime_seconds": self.telemetry.uptime_seconds,
            "backend": self.backend.name if self.backend else "serial",
            "n_workers": cfg.n_workers,
            "batching": cfg.batching,
            "batch_window_ms": 1e3 * cfg.batch_window_s,
            "max_pending": cfg.max_pending,
            "inflight": self._inflight,
            "arrays": store["arrays"],
            "bytes_used": store["bytes_used"],
            "byte_budget": store["byte_budget"],
        }

    def _handle_stats(self) -> Reply:
        from repro.runtime.cache import cache_stats

        cache = cache_stats()
        extra: dict[str, object] = {
            "server": self._identity(),
            "store": self.store.snapshot(),
            "decoded_block_cache": (
                {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "evictions": cache.evictions,
                    "hit_rate": cache.hit_rate,
                }
                if cache is not None
                else None
            ),
        }
        doc = self.telemetry.snapshot(extra=extra)
        return Reply(
            status=Status.OK, kind=BodyKind.JSON, json_text=json.dumps(doc)
        )

    def _handle_health(self) -> Reply:
        return Reply(
            status=Status.OK,
            kind=BodyKind.JSON,
            json_text=json.dumps(self._identity()),
        )


class ThreadedServer:
    """A :class:`ServiceServer` hosted on a dedicated event-loop thread.

    The sync harness around the asyncio server: tests, ``bench-serve``'s
    self-hosted mode, and interactive use all need "start a server, get
    its port, stop it later" without owning an event loop themselves.

    >>> handle = ThreadedServer(ServiceConfig())
    >>> handle.start()
    >>> handle.port  # doctest: +SKIP
    49321
    >>> handle.stop()
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        server: ServiceServer | None = None,
    ) -> None:
        # A pre-built server (e.g. a cluster node) may be hosted directly;
        # otherwise one is constructed from the config.
        self.server = server if server is not None else ServiceServer(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def start(self, timeout_s: float = 10.0) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("service event loop failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.shutdown())
            loop.close()

    def stop(self, timeout_s: float = 15.0) -> None:
        """Request graceful shutdown and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout_s)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
