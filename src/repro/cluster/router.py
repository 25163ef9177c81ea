"""The cluster router: client-side coordinator over the shard map.

One :class:`ClusterClient` owns a :class:`~repro.cluster.hashring.ShardMap`
and a connection per node, and presents the single-node client surface
(put/get/op/reduce) over the whole cluster:

* **PUT** fans each key's bytes to *all* of its owners and acknowledges
  only when every owner accepted — with ``replicas >= 2`` a single node
  loss can never lose an acknowledged write.  Large arrays are placed
  *chunked*: :func:`~repro.cluster.chunking.split_container` slices the
  compressed stream block-aligned (no decode), each chunk becomes its
  own ring key, and a manifest records the chunk count for later
  reassembly and reduction fan-out.
* **GET** reads from the first live owner, failing over through the
  replica list; chunked arrays are reassembled byte-exactly by
  :func:`~repro.cluster.chunking.merge_containers`.
* **REDUCE** never moves array bytes: every chunk's owner answers a
  PREDUCE with exact quantized moments
  (:class:`~repro.core.moments.QuantizedMoments`), the router adds
  them as integers and applies the single final ``2 * eps`` scaling.
  Because the sums are exact, every reduction — mean, min, max,
  variance, std — is **bit-identical** to a single-node REDUCE of the
  unsplit array, for any cluster size or placement (see docs/CLUSTER.md
  for the algebra).
* **Epoch fencing** — every data RPC carries the router's map epoch; a
  ``RETRY`` from a node triggers reconciliation (adopt the newer map,
  or push ours) and exactly one retry against freshly computed owners.
* **Rebalancing** — :meth:`remove_node` builds the successor map
  (epoch + 1), pushes it to the survivors, and drops the dead
  connection; the membership monitor calls it on heartbeat loss, and
  the write path calls it inline when an owner dies mid-PUT.

The router is thread-safe: map/connection/manifest mutations are
serialized by one lock, and data-path reads snapshot the map reference
once per attempt.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.cluster.chunking import chunk_key, merge_containers, split_container
from repro.cluster.hashring import NodeInfo, ShardMap
from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.service.client import (
    ConnectionLost,
    RemoteError,
    ServiceClient,
    ServiceError,
    StaleEpoch,
    steps_from_chain,
)
from repro.service.protocol import Moments
from repro.service.telemetry import Telemetry

__all__ = [
    "ClusterError",
    "NoLiveOwner",
    "Manifest",
    "ClusterClient",
    "combine_moments",
    "finish_reduction",
]

#: Reductions the router can finish from one moment tuple.
CLUSTER_REDUCTIONS = ("mean", "variance", "std", "minimum", "maximum")

#: Connection-level failures that trigger replica failover on reads and
#: rebalance-and-retry on writes.
_DEAD_NODE_ERRORS = (ConnectionLost, ConnectionError, OSError)

T = TypeVar("T")


class ClusterError(ServiceError):
    """A cluster-level operation failed (no retry left)."""


class NoLiveOwner(ClusterError):
    """Every owner of a key was unreachable (or missing the key)."""


@dataclass(frozen=True)
class Manifest:
    """Placement record of one chunked array."""

    name: str
    n_chunks: int
    shape: tuple[int, ...]

    def keys(self) -> list[str]:
        return [chunk_key(self.name, i) for i in range(self.n_chunks)]


def _check_reduction(reduction: str) -> None:
    if reduction not in CLUSTER_REDUCTIONS:
        raise ClusterError(
            f"unknown reduction {reduction!r}; valid: {', '.join(CLUSTER_REDUCTIONS)}"
        )


def combine_moments(partials: list[Moments]) -> Moments:
    """Add per-chunk moments into whole-array moments (exact integers).

    Chunks of one array share its error bound; partials at different
    bounds are refused rather than mixed.
    """
    if not partials:
        raise ClusterError("cannot combine zero moment partials")
    eps = partials[0].eps
    for m in partials:
        if m.eps != eps:
            raise ClusterError(
                f"chunks disagree on eps ({m.eps!r} != {eps!r}); "
                "refusing to combine moments across error bounds"
            )
    return Moments(QuantizedMoments.combine(m.moments for m in partials), eps)


def finish_reduction(reduction: str, m: Moments) -> float:
    """Scale combined quantized moments into the requested scalar.

    The same :meth:`QuantizedMoments.finish` every single-node reduction
    runs, on the same exact sums, hence bit-identical.
    """
    _check_reduction(reduction)
    if m.moments.n <= 0:
        raise ClusterError("cannot reduce an empty array")
    return m.moments.finish(reduction, m.eps)


class ClusterClient:
    """Cluster-aware client/coordinator (see module docstring).

    >>> cluster = ClusterClient(shard_map)          # doctest: +SKIP
    >>> cluster.put("U", compressed, chunks=8)      # doctest: +SKIP
    >>> cluster.reduce("U", "mean")                 # doctest: +SKIP
    """

    def __init__(
        self,
        shard_map: ShardMap,
        timeout_s: float = 30.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.map = shard_map
        self.timeout_s = timeout_s
        self.telemetry = telemetry or Telemetry()
        self._lock = threading.RLock()
        self._clients: dict[str, ServiceClient] = {}
        self._manifests: dict[str, Manifest] = {}

    # ------------------------------------------------------------------ connections

    def _client(self, node: NodeInfo) -> ServiceClient:
        with self._lock:
            client = self._clients.get(node.node_id)
            if client is None:
                client = ServiceClient(node.host, node.port, timeout_s=self.timeout_s)
                self._clients[node.node_id] = client
            return client

    def _drop_client(self, node_id: str) -> None:
        with self._lock:
            client = self._clients.pop(node_id, None)
        if client is not None:
            try:
                client.close()
            except OSError:  # szops: ignore[SZL006] -- socket teardown, not a codec path
                pass

    def close(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except OSError:  # szops: ignore[SZL006] -- socket teardown, not a codec path
                pass

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ map plane

    @property
    def epoch(self) -> int:
        return self.map.epoch

    def install_map(self) -> None:
        """Push the current map to every node (best effort per node)."""
        current = self.map
        for node in current.nodes:
            try:
                self._client(node).shardmap(current.to_json())
            except _DEAD_NODE_ERRORS:
                self.telemetry.increment_keyed("map_push_failures", node.node_id)

    def adopt_map(self, new_map: ShardMap) -> bool:
        """Switch to a strictly newer map; returns True when adopted."""
        with self._lock:
            if new_map.epoch <= self.map.epoch:
                return False
            self.map = new_map
            stale = set(self._clients) - {n.node_id for n in new_map.nodes}
        for node_id in stale:
            self._drop_client(node_id)
        self.telemetry.increment("map_adoptions")
        return True

    def remove_node(self, node_id: str) -> ShardMap:
        """Rebalance around a lost node and fence the new epoch in."""
        with self._lock:
            if all(n.node_id != node_id for n in self.map.nodes):
                return self.map  # already removed (monitor/write race)
            if len(self.map.nodes) == 1:
                raise ClusterError(
                    f"cannot remove {node_id!r}: it is the last node"
                )
            self.map = self.map.without_node(node_id)
        self._drop_client(node_id)
        self.telemetry.increment_keyed("rebalances", node_id)
        self.install_map()
        return self.map

    def _reconcile(self, exc: StaleEpoch) -> None:
        """Resolve an epoch fence: adopt the node's newer map or push ours."""
        if exc.map_json:
            other = ShardMap.from_json(exc.map_json)
            if self.adopt_map(other):
                return
        self.install_map()

    def _with_epoch_retry(self, attempt: Callable[[], T]) -> T:
        try:
            return attempt()
        except StaleEpoch as exc:
            self.telemetry.increment("epoch_retries")
            self._reconcile(exc)
            return attempt()

    # ------------------------------------------------------------------ read plane

    def _read_from_owners(
        self, key: str, op: Callable[[ServiceClient, int], T]
    ) -> T:
        """Run a read against the first owner that can answer it.

        Fails over through the replica list on dead connections *and*
        on store misses — after a rebalance the ring successor becomes
        an owner before any data migrates to it, so a miss there simply
        means "ask the next replica".
        """
        current = self.map
        owners = current.owners(key)
        last_error: Exception | None = None
        for position, node in enumerate(owners):
            try:
                result = op(self._client(node), current.epoch)
            except _DEAD_NODE_ERRORS as exc:
                last_error = exc
                self.telemetry.increment_keyed("read_failovers", node.node_id)
                continue
            except RemoteError as exc:
                # Only store misses fail over (post-rebalance successors
                # legitimately lack un-migrated keys); real remote faults
                # (bad chains, corrupt streams) surface immediately.
                if "unknown array" not in str(exc) and "evicted" not in str(exc):
                    raise
                last_error = exc
                self.telemetry.increment_keyed("read_misses", node.node_id)
                continue
            self.telemetry.increment_keyed("shard_reads", node.node_id)
            if position:
                self.telemetry.increment("replica_reads")
            return result
        raise NoLiveOwner(
            f"no owner of {key!r} could answer "
            f"({len(owners)} tried, epoch {current.epoch})"
        ) from last_error

    # ------------------------------------------------------------------ write plane

    def _put_key(self, key: str, stream: bytes) -> None:
        """Write one key to all of its owners; rebalance-and-retry once.

        Acknowledged (returns) only when every owner accepted the
        bytes.  When an owner dies mid-write the dead node is removed
        (epoch + 1), survivors get the new map, and the *whole* write
        re-runs against the fresh owner set — PUT assigns a new version
        per store insert, so the duplicate writes to surviving owners
        are harmless.
        """

        def attempt() -> None:
            current = self.map
            for node in current.owners(key):
                try:
                    self._client(node).put(key, stream, epoch=current.epoch)
                except _DEAD_NODE_ERRORS as exc:
                    raise _OwnerDied(node.node_id) from exc
                self.telemetry.increment_keyed("shard_writes", node.node_id)

        try:
            self._with_epoch_retry(attempt)
        except _OwnerDied as died:
            self.remove_node(died.node_id)
            try:
                self._with_epoch_retry(attempt)
            except _OwnerDied as again:
                raise ClusterError(
                    f"write of {key!r} failed twice (nodes "
                    f"{died.node_id!r}, {again.node_id!r} died)"
                ) from again

    # ------------------------------------------------------------------ data API

    def put(
        self,
        name: str,
        array: SZOpsCompressed | bytes,
        chunks: int = 1,
    ) -> int:
        """Store an array; returns the number of chunks placed.

        ``chunks > 1`` (containers only) splits the compressed stream
        block-aligned and places each chunk on its own ring owners —
        the layout distributed PREDUCE fans over.
        """
        if "/#" in name:
            raise ClusterError(
                f"array name {name!r} collides with the chunk-key namespace"
            )
        if chunks > 1 and isinstance(array, SZOpsCompressed):
            parts = split_container(array, chunks)
            for index, part in enumerate(parts):
                self._put_key(chunk_key(name, index), part.to_bytes())
            manifest = Manifest(name, len(parts), tuple(array.shape))
            with self._lock:
                self._manifests[name] = manifest
            return len(parts)
        stream = array.to_bytes() if isinstance(array, SZOpsCompressed) else bytes(array)
        self._put_key(name, stream)
        with self._lock:
            self._manifests.pop(name, None)
        return 1

    def manifest(self, name: str) -> Manifest | None:
        with self._lock:
            return self._manifests.get(name)

    def get_container(self, name: str) -> SZOpsCompressed:
        """Fetch an array (reassembled byte-exactly when chunked)."""
        manifest = self.manifest(name)
        if manifest is None:
            raw = self._with_epoch_retry(
                lambda: self._read_from_owners(
                    name, lambda c, e: c.get(name, epoch=e)
                )
            )
            return SZOpsCompressed.from_bytes(raw)

        def fetch() -> list[bytes]:
            return [
                self._read_from_owners(key, lambda c, e, k=key: c.get(k, epoch=e))
                for key in manifest.keys()
            ]

        blobs = self._with_epoch_retry(fetch)
        parts = [SZOpsCompressed.from_bytes(b) for b in blobs]
        return merge_containers(parts, shape=manifest.shape)

    def op(self, name: str, chain: Any, result_name: str = "") -> SZOpsCompressed | int:
        """Apply a pointwise chain; return the result or store it.

        Chunked arrays fan the chain to each chunk's owner (pointwise
        chains are per-element, so per-chunk application is exact) and,
        when storing, place result chunks by ring and register a result
        manifest.  Results are always re-placed through the router so
        ownership stays consistent — a node never stores a result for a
        key it does not own.
        """
        steps = steps_from_chain(chain)
        manifest = self.manifest(name)
        if manifest is None:
            raw = self._with_epoch_retry(
                lambda: self._read_from_owners(
                    name, lambda c, e: c.op(name, steps, epoch=e)
                )
            )
            if result_name:
                self.put(result_name, bytes(raw))
                return 1
            return SZOpsCompressed.from_bytes(bytes(raw))

        def fetch() -> list[bytes]:
            return [
                bytes(
                    self._read_from_owners(
                        key, lambda c, e, k=key: c.op(k, steps, epoch=e)
                    )
                )
                for key in manifest.keys()
            ]

        blobs = self._with_epoch_retry(fetch)
        if result_name:
            for index, blob in enumerate(blobs):
                self._put_key(chunk_key(result_name, index), blob)
            with self._lock:
                self._manifests[result_name] = Manifest(
                    result_name, manifest.n_chunks, manifest.shape
                )
            return manifest.n_chunks
        parts = [SZOpsCompressed.from_bytes(b) for b in blobs]
        return merge_containers(parts, shape=manifest.shape)

    def preduce(self, name: str, chain: Any = ()) -> Moments:
        """Whole-array quantized moments via per-chunk PREDUCE fan-out."""
        steps = steps_from_chain(chain)
        manifest = self.manifest(name)
        keys = manifest.keys() if manifest is not None else [name]

        def fan_out() -> list[Moments]:
            return [
                self._read_from_owners(
                    key, lambda c, e, k=key: c.preduce(k, steps, epoch=e)
                )
                for key in keys
            ]

        return combine_moments(self._with_epoch_retry(fan_out))

    def reduce(self, name: str, reduction: str, chain: Any = ()) -> float:
        """Distributed reduction (see module docstring for exactness)."""
        _check_reduction(reduction)  # before any round trip
        return finish_reduction(reduction, self.preduce(name, chain))

    # ------------------------------------------------------------------ observability

    def status(self) -> dict[str, Any]:
        """Per-node ping results plus the router's own view of the map."""
        current = self.map
        nodes: dict[str, Any] = {}
        for node in current.nodes:
            try:
                nodes[node.node_id] = self._client(node).ping()
            except _DEAD_NODE_ERRORS as exc:
                nodes[node.node_id] = {"error": str(exc) or type(exc).__name__}
        return {
            "epoch": current.epoch,
            "replicas": current.replicas,
            "nodes": nodes,
            "manifests": {
                m.name: m.n_chunks for m in self._manifests.values()
            },
            "telemetry": self.telemetry.snapshot(),
        }


class _OwnerDied(Exception):
    """Internal: a specific owner's connection died mid-write."""

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self.node_id = node_id
