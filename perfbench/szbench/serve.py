"""Workload ``serve``: two cluster nodes driven over TCP by one router.

Two in-process :class:`~repro.cluster.ClusterNode` servers, each on its
own :class:`~repro.service.server.ThreadedServer` event-loop thread,
default ``NodeConfig``, ``replicas=2``; one
:class:`~repro.cluster.ClusterClient` (one connection per node) on the
calling thread drives a closed loop with one request outstanding — the
callers are analysis scripts that wait for each reply.  Nodes run
in-process: cross-process wake-ups on a small guest cost more than the
requests themselves.

The working set fits the decoded-block cache (8 arrays × 2 chunks plus
4 OP arrays = 20 streams, from the Hurricane and CESM-ATM stand-ins at
relative bound 1e-3), so after warm-up nothing decodes and the service
and cluster per-request cost is what gets measured.  The mix:

* 60 % REDUCE (mean / minimum / maximum / variance) over 2-chunk arrays
  — a PREDUCE fan-out plus the router's exact moment combine;
* 20 % depth-3 OP chains (negate, ×0.5, +1) on unsharded arrays, one
  chain per array, as an analysis script would repeat it;
* 10 % GET of chunked arrays (chunk fetch + merge);
* 10 % PUT of precompressed arrays under rotating names (replicated).
  A PUT is acknowledged only when every owner accepted the bytes; at
  the end of each pass, outside the timed region, every owner's stored
  copy of each rotating name is fetched and compared with the bytes
  last written under it.

Set-up (synthesis, corpus compression, node boot and corpus placement)
is built three times.  Eight timed rounds of re-compressing and
decompressing the corpus, spread over the measured op loop (outside its
wall time), give this workload's ``compress_mb_s`` /
``decompress_mb_s`` and check the error bound; the traced run skips
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import SZOps, SZOpsCompressed
from repro.cluster import ClusterClient, ClusterNode, NodeConfig, NodeInfo, ShardMap
from repro.core.ops import apply_chain
from repro.runtime import LazyStream, clear_cache
from repro.service import ServiceClient
from repro.service.server import ThreadedServer

from szbench.common import (
    FAILED,
    Ledger,
    Report,
    derive_seed,
    end_to_end_report,
    repeated_setup,
)
from szbench.corpus import CodecRounds, dataset_fields, interleave
from szbench.reference import VARIANCE_RTOL
from szbench.trace import cache_snapshot, stream_planes, traced_report, traced_run

DATASETS = ["Hurricane", "CESM-ATM"]
BOUND = 1e-3
NODES = 2
REPLICAS = 2
CHUNKS = 2
N_REDUCE_ARRAYS = 8
PUT_NAMES = 8
#: Codec rounds over the corpus, spread over the measured op loop.
CODEC_ROUNDS = 8
#: Requests per second of ``--seconds`` (a fixed count, not a time box).
OPS_PER_SECOND = 300
MIX = (("reduce", 0.6), ("op", 0.2), ("get", 0.1), ("put", 0.1))
REDUCTIONS = ("mean", "minimum", "maximum", "variance")
OP_CHAIN = (("negation", None), ("scalar_multiply", 0.5), ("scalar_add", 1.0))


@dataclass
class Cluster:
    handles: list[ThreadedServer]
    router: ClusterClient
    containers: list[SZOpsCompressed]
    fields: list[np.ndarray] = field(repr=False)

    @property
    def reduce_names(self) -> list[str]:
        return [f"r{i}" for i in range(N_REDUCE_ARRAYS)]

    @property
    def op_names(self) -> list[str]:
        return [f"o{i}" for i in range(len(self.containers) - N_REDUCE_ARRAYS)]

    def close(self) -> None:
        self.router.close()
        for handle in self.handles:
            handle.stop()


def _boot(seed: int, scale: float, codec: SZOps) -> Cluster:
    fields = [arr for _d, _f, arr in dataset_fields(seed, datasets=DATASETS, scale=scale)]
    containers = [codec.compress(data, BOUND, mode="rel") for data in fields]
    handles: list[ThreadedServer] = []
    for i in range(NODES):
        node = ClusterNode(NodeConfig(node_id=f"node-{i}"))
        handles.append(ThreadedServer(server=node).start())
    shard_map = ShardMap(
        tuple(NodeInfo(f"node-{i}", h.host, h.port) for i, h in enumerate(handles)),
        replicas=REPLICAS,
    )
    router = ClusterClient(shard_map)
    router.install_map()
    cluster = Cluster(handles, router, containers, fields)
    for name, c in zip(cluster.reduce_names, containers):
        router.put(name, c, chunks=CHUNKS)
    for name, c in zip(cluster.op_names, containers[N_REDUCE_ARRAYS:]):
        router.put(name, c)
    return cluster


@dataclass(frozen=True)
class Request:
    kind: str
    target: int
    reduction: str = ""


def schedule(seed: int, n_ops: int, n_op_arrays: int) -> list[Request]:
    """A fixed multiset of ``n_ops`` requests in a seed-shuffled order."""
    rng = np.random.default_rng(derive_seed(0, 3))
    kinds = rng.choice(len(MIX), size=n_ops, p=[p for _k, p in MIX])
    plan = []
    for k in kinds:
        kind = MIX[int(k)][0]
        if kind == "reduce":
            plan.append(
                Request(kind, int(rng.integers(N_REDUCE_ARRAYS)),
                        REDUCTIONS[int(rng.integers(len(REDUCTIONS)))])
            )
        elif kind == "get":
            plan.append(Request(kind, int(rng.integers(N_REDUCE_ARRAYS))))
        else:
            plan.append(Request(kind, int(rng.integers(n_op_arrays))))
    np.random.default_rng(derive_seed(seed, 3)).shuffle(plan)
    return plan


@dataclass
class References:
    reduce: dict[tuple[int, str], float]
    op: list[bytes]
    blobs: list[bytes]


def _references(cluster: Cluster) -> References:
    reduce = {}
    for i, c in enumerate(cluster.containers[:N_REDUCE_ARRAYS]):
        for name in REDUCTIONS:
            reduce[(i, name)] = float(getattr(LazyStream(c), name)())
    ops = [
        apply_chain(c, OP_CHAIN, fused=False).to_bytes()
        for c in cluster.containers[N_REDUCE_ARRAYS:]
    ]
    blobs = [c.to_bytes() for c in cluster.containers]
    return References(reduce, ops, blobs)


def _reduce_ok(reduction: str, got: float, want: float) -> bool:
    """mean/min/max bit-identical; variance as ``repro.cluster`` checks it."""
    if reduction == "variance":
        return abs(got - want) <= VARIANCE_RTOL * max(abs(want), 1.0)
    return got == want


def _stored_on_every_owner(cluster: Cluster, name: str, blob: bytes) -> bool:
    """Each owner's latest stored version of ``name`` is exactly ``blob``."""
    for node in cluster.router.map.owners(name):
        with ServiceClient(node.host, node.port) as client:
            if client.get(name) != blob:
                return False
    return True


def _execute(cluster: Cluster, refs: References, plan: list[Request], ledger: Ledger, put_base: int) -> None:
    router = cluster.router
    reduce_names, op_names = cluster.reduce_names, cluster.op_names
    written: dict[str, bytes] = {}
    for n, req in enumerate(plan):
        if req.kind == "reduce":
            value = ledger.timed("reduce", router.reduce, reduce_names[req.target], req.reduction)
            if value is not FAILED:
                want = refs.reduce[(req.target, req.reduction)]
                ledger.check(req.reduction, lambda: _reduce_ok(req.reduction, value, want))
        elif req.kind == "op":
            out = ledger.timed("pointwise", router.op, op_names[req.target], OP_CHAIN)
            if out is not FAILED:
                ledger.check("op", lambda: out.to_bytes() == refs.op[req.target])
        elif req.kind == "get":
            got = ledger.timed("get", router.get_container, reduce_names[req.target])
            if got is not FAILED:
                ledger.check("get", lambda: got.to_bytes() == refs.blobs[req.target])
        else:
            name = f"put-{(put_base + n) % PUT_NAMES}"
            blob = refs.blobs[N_REDUCE_ARRAYS + req.target]
            if ledger.timed("put", router.put, name, blob) is not FAILED:
                written[name] = blob
    for name, blob in written.items():
        ledger.check("put", lambda: _stored_on_every_owner(cluster, name, blob))


def _warm_up(cluster: Cluster, refs: References) -> None:
    ledger = Ledger()
    plan = [Request("reduce", i, name) for i in range(N_REDUCE_ARRAYS) for name in REDUCTIONS]
    plan += [Request("op", i) for i in range(len(cluster.op_names))]
    plan += [Request("get", i) for i in range(N_REDUCE_ARRAYS)]
    plan += [Request("put", i) for i in range(len(cluster.op_names))]
    _execute(cluster, refs, plan * 2, ledger, put_base=0)
    if ledger.failed:
        raise RuntimeError(f"serve warm-up failed: {ledger.notes}")


def _counters(cluster: Cluster) -> dict[str, float]:
    """STATS counters summed over nodes, router retries, cache counters.

    ``batches`` and ``batch_dedup_hits`` depend on request timing (an OP
    can join a finished flight, README.md "Findings"); the rest are exact.
    """
    totals = dict.fromkeys(
        (
            "stats_batches",
            "stats_dedup_hits",
            "stats_busy",
            "stats_timeouts",
            "stats_errors",
            "store_evictions",
        ),
        0.0,
    )
    for handle in cluster.handles:
        with ServiceClient(handle.host, handle.port) as client:
            doc = client.stats()
        by_status: dict[str, int] = {}
        for endpoint in doc["endpoints"].values():
            for status, count in endpoint["by_status"].items():
                by_status[status] = by_status.get(status, 0) + count
        totals["stats_batches"] += doc["counters"].get("batches", 0)
        totals["stats_dedup_hits"] += doc["counters"].get("batch_dedup_hits", 0)
        totals["stats_busy"] += by_status.get("BUSY", 0)
        totals["stats_timeouts"] += by_status.get("TIMEOUT", 0)
        totals["stats_errors"] += by_status.get("ERROR", 0)
        totals["store_evictions"] += doc["store"]["evictions"]
    router = cluster.router.telemetry.snapshot()
    keyed = router["keyed_counters"]
    totals["router_retries"] = float(
        router["counters"].get("epoch_retries", 0)
        + sum(
            sum(keyed.get(group, {}).values())
            for group in ("read_failovers", "read_misses", "rebalances")
        )
    )
    return {**totals, **cache_snapshot()}


def _check_moment_range(cluster: Cluster) -> None:
    """Distributed variance is exact only while sum(q^2) < 2^53 (see README)."""
    codec = SZOps()
    for name, c in zip(cluster.reduce_names, cluster.containers):
        q = codec.decompress_quantized(c).astype(np.float64)
        if float(np.dot(q, q)) >= 2.0**53:
            raise RuntimeError(
                f"serve array {name} has sum(q^2) >= 2^53: outside the range "
                "where distributed variance is placement-invariant"
            )


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Report:
    codec = SZOps()
    setup = Ledger()
    cluster = repeated_setup(lambda: _boot(seed, scale, codec), Cluster.close, setup)
    try:
        _check_moment_range(cluster)
        refs = _references(cluster)
        clear_cache()
        _warm_up(cluster, refs)
        plan = schedule(seed, max(1, round(seconds * OPS_PER_SECOND)), len(cluster.op_names))
        passes = [0]

        def run_pass() -> tuple[Ledger, float]:
            ledger = Ledger()
            _execute(cluster, refs, plan, ledger, put_base=passes[0] * len(plan))
            ledger.close()
            passes[0] += 1
            return ledger, ledger.wall_s

        if trace:
            tracer, ledgers, counts, walls = traced_run(run_pass, lambda: _counters(cluster))
            counts.update(stream_planes(cluster.containers))
            counts["ops"] = float(len(plan))
            return traced_report(tracer, counts, walls, ledgers)

        rounds = CodecRounds(codec, cluster.fields, cluster.containers, BOUND)
        ledger = Ledger()
        interleave(
            plan,
            rounds,
            CODEC_ROUNDS,
            lambda reqs, offset: _execute(cluster, refs, reqs, ledger, put_base=offset),
            ledger,
        )
    finally:
        cluster.close()

    return end_to_end_report(
        ledger,
        setup,
        rounds.ledger,
        {i: data.nbytes for i, data in enumerate(cluster.fields)},
        sum(len(blob) for blob in refs.blobs),
        {"ops": len(plan)},
    )
