"""repro.cluster — sharded multi-node serving with distributed reductions.

Scales :mod:`repro.service` horizontally while keeping the paper's
numerical contract intact: compressed arrays are split block-aligned
(decode-free) across shard nodes on a consistent-hash ring, reductions
run as per-shard PREDUCE returning *quantized* moments that the router
combines with the exact integer algebra from
:mod:`repro.parallel.collectives` — so a distributed ``mean``/``min``/
``max`` is bit-identical to the single-node result, regardless of
cluster size or placement.

Layers (each usable on its own):

* :mod:`~repro.cluster.hashring` — deterministic consistent-hash shard
  maps with virtual nodes, replica owner sets, and versioned epochs.
* :mod:`~repro.cluster.chunking` — decode-free split/merge of SZOps
  containers along block boundaries, plus the chunk-key namespace.
* :mod:`~repro.cluster.node` — a :class:`~repro.service.server.ServiceServer`
  subclass adding the SHARDMAP / PREDUCE / PING opcodes and epoch
  fencing, plus :func:`~repro.cluster.node.local_cluster`, which boots
  an in-process fleet behind a connected router.
* :mod:`~repro.cluster.router` — the client-side coordinator: replica
  fan-out writes, failover reads, distributed reductions, epoch
  reconciliation, and rebalancing.
* :mod:`~repro.cluster.membership` — heartbeat failure detection that
  drives automatic rebalancing.

See ``docs/CLUSTER.md`` for the architecture and the exactness matrix.
"""

from repro.cluster.chunking import (
    chunk_key,
    merge_containers,
    parse_chunk_key,
    split_container,
)
from repro.cluster.hashring import NodeInfo, ShardMap, hash_point
from repro.cluster.membership import HeartbeatMonitor, ProbeState
from repro.cluster.node import ClusterNode, NodeConfig, local_cluster
from repro.cluster.router import (
    CLUSTER_REDUCTIONS,
    ClusterClient,
    ClusterError,
    Manifest,
    NoLiveOwner,
    combine_moments,
    finish_reduction,
)

__all__ = [
    "NodeInfo",
    "ShardMap",
    "hash_point",
    "chunk_key",
    "parse_chunk_key",
    "split_container",
    "merge_containers",
    "NodeConfig",
    "ClusterNode",
    "ClusterClient",
    "ClusterError",
    "NoLiveOwner",
    "Manifest",
    "CLUSTER_REDUCTIONS",
    "combine_moments",
    "finish_reduction",
    "HeartbeatMonitor",
    "ProbeState",
    "local_cluster",
]
