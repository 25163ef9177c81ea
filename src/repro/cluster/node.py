"""One cluster node: a :class:`ServiceServer` plus the v2 opcodes.

A node is deliberately thin — it *is* the single-node server, with
three additions layered on the ``_dispatch_extra`` hook:

* **SHARDMAP** — install/fetch the cluster placement map.  A node
  accepts any map with an epoch at or above its current one and always
  answers with the map it now holds, so install-and-confirm is one
  round trip and pushing an old map is a harmless no-op.
* **PREDUCE** — the distributed-reduction workhorse: fold the request's
  pointwise prefix through the lazy fusion runtime and return the exact
  *quantized* moments ``(Σq, Σq², min q, max q, n)`` of whatever shard
  of the array this node stores.  No ``2*eps`` scaling
  happens here; the router applies it once after combining, exactly as
  ``runtime.lazy`` would have, which is what keeps distributed results
  bit-identical to single-node ones.  When the shard's moments are
  already memoised (every PREDUCE after the first on a stream, unless a
  multiply is in the chain) the event loop answers with a field read,
  exactly like a single-node REDUCE; otherwise the kernel pool computes
  them.
* **PING** — a cheap liveness probe answering epoch + load, the signal
  the membership monitor consumes.

**Epoch fencing**: every data request (PUT/GET/OP/REDUCE/PREDUCE) whose
v2 header carries a non-zero epoch is checked against the node's map
epoch.  Mismatch means someone's routing table is stale — the node
answers ``RETRY`` carrying its own map rather than serving what might
be a misroute, and the router reconciles (adopts the newer map or
pushes its own).  Requests with epoch 0 (plain single-node clients)
bypass the fence: a cluster node still serves the v1 protocol
unchanged.
"""

from __future__ import annotations

import asyncio
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.cluster.hashring import NodeInfo, ShardMap
from repro.cluster.router import ClusterClient
from repro.core.moments import QuantizedMoments
from repro.service.protocol import (
    BodyKind,
    Moments,
    Opcode,
    PingRequest,
    PReduceRequest,
    Reply,
    Request,
    ShardMapRequest,
    Status,
)
from repro.service.server import (
    ServiceConfig,
    ServiceServer,
    ThreadedServer,
    _fuse,
    _validate_pointwise,
)

__all__ = ["NodeConfig", "ClusterNode", "local_cluster"]

#: Opcodes exempt from epoch fencing: control-plane exchanges must work
#: between disagreeing parties (that is how they stop disagreeing), and
#: observability must work during partitions.
_UNFENCED = frozenset(
    {Opcode.SHARDMAP, Opcode.PING, Opcode.STATS, Opcode.HEALTH}
)


@dataclass(frozen=True)
class NodeConfig(ServiceConfig):
    """Server tunables plus the node's stable cluster identity."""

    node_id: str = "node-0"


class ClusterNode(ServiceServer):
    """A shard server: the full v1 service plus SHARDMAP/PREDUCE/PING."""

    def __init__(self, config: NodeConfig | None = None) -> None:
        cfg = config or NodeConfig()
        super().__init__(cfg)
        self.node_id = cfg.node_id
        #: The placement map this node currently fences against.  Only
        #: ever touched on the event-loop thread (dispatch is
        #: single-threaded per node), so no lock is needed.
        self.shard_map: ShardMap | None = None

    # ------------------------------------------------------------------ fencing

    @property
    def epoch(self) -> int:
        return self.shard_map.epoch if self.shard_map is not None else 0

    def _stale_reply(self, caller_epoch: int) -> Reply:
        self.telemetry.increment("epoch_rejections")
        map_json = self.shard_map.to_json() if self.shard_map is not None else ""
        return Reply(
            status=Status.RETRY,
            kind=BodyKind.MESSAGE,
            message=(
                f"epoch fence: caller at {caller_epoch}, node "
                f"{self.node_id!r} at {self.epoch}"
            ),
            json_text=map_json,
        )

    async def _dispatch(self, request: Request, epoch: int = 0) -> Reply:
        if epoch and request.opcode not in _UNFENCED and epoch != self.epoch:
            return self._stale_reply(epoch)
        return await super()._dispatch(request, epoch)

    # ------------------------------------------------------------------ v2 opcodes

    async def _dispatch_extra(self, request: Request, epoch: int) -> Reply:
        if isinstance(request, ShardMapRequest):
            return self._handle_shardmap(request)
        if isinstance(request, PReduceRequest):
            return await self._handle_preduce(request)
        if isinstance(request, PingRequest):
            return self._handle_ping()
        return await super()._dispatch_extra(request, epoch)

    def _handle_shardmap(self, request: ShardMapRequest) -> Reply:
        if request.map_json:
            incoming = ShardMap.from_json(request.map_json)
            if self.shard_map is None or incoming.epoch >= self.shard_map.epoch:
                self.shard_map = incoming
                self.telemetry.increment("shardmap_installs")
            else:
                self.telemetry.increment("shardmap_stale_pushes")
        doc = {
            "node_id": self.node_id,
            "epoch": self.epoch,
            "map": json.loads(self.shard_map.to_json())
            if self.shard_map is not None
            else None,
        }
        return Reply(status=Status.OK, kind=BodyKind.JSON, json_text=json.dumps(doc))

    async def _handle_preduce(self, request: PReduceRequest) -> Reply:
        if request.steps:
            _validate_pointwise(request.steps)
        entry = self.store.get(request.name, request.version)
        self.telemetry.increment_keyed("preduce_arrays", request.name)
        chain = _fuse(entry.container, request.steps)
        moments = self._memo_moments(chain)
        if moments is None:
            backend = self.backend
            delay = self.config.debug_delay_s

            def compute() -> QuantizedMoments:
                if delay:
                    time.sleep(delay)
                return chain.quantized_moments(executor=backend)

            loop = asyncio.get_running_loop()
            moments = await loop.run_in_executor(self.pool, compute)
        return Reply(
            status=Status.OK,
            kind=BodyKind.MOMENTS,
            moments=Moments(moments, entry.container.eps),
        )

    def _handle_ping(self) -> Reply:
        doc = {
            "node_id": self.node_id,
            "epoch": self.epoch,
            "inflight": self._inflight,
            "arrays": self.store.snapshot()["arrays"],
            "uptime_seconds": self.telemetry.uptime_seconds,
        }
        return Reply(status=Status.OK, kind=BodyKind.JSON, json_text=json.dumps(doc))

    # ------------------------------------------------------------------ identity

    def _identity(self) -> dict[str, object]:
        doc = super()._identity()
        doc["node_id"] = self.node_id
        doc["epoch"] = self.epoch
        return doc


@contextmanager
def local_cluster(
    n_nodes: int,
    replicas: int = 2,
    vnodes: int = 32,
    install: bool = True,
    **node_kwargs: Any,
) -> Iterator[tuple[ClusterClient, list[ThreadedServer]]]:
    """Boot ``n_nodes`` in-process cluster nodes plus a connected router.

    Each node is a real :class:`ClusterNode` behind a real TCP socket on
    its own event-loop thread; only process isolation is skipped (the
    subprocess path is exercised by ``repro cluster serve`` and the CI
    fault drill).  Yields ``(router, handles)``; tears everything down
    on exit.
    """
    handles: list[ThreadedServer] = []
    router: ClusterClient | None = None
    try:
        for i in range(n_nodes):
            node = ClusterNode(NodeConfig(node_id=f"node-{i}", **node_kwargs))
            handles.append(ThreadedServer(server=node).start())
        shard_map = ShardMap(
            tuple(
                NodeInfo(f"node-{i}", h.host, h.port)
                for i, h in enumerate(handles)
            ),
            replicas=replicas,
            vnodes=vnodes,
        )
        router = ClusterClient(shard_map)
        if install:
            router.install_map()
        yield router, handles
    finally:
        if router is not None:
            router.close()
        for handle in handles:
            handle.stop()
