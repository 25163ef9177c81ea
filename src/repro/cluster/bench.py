"""Cluster benchmark: sharded serving under a nodes × replicas × clients grid.

``repro cluster bench`` (and the ``cluster`` experiment workload) runs
this.  A local cluster of :class:`~repro.cluster.node.ClusterNode`
servers is stood up — in-process by default, each on its own event-loop
thread, which exercises the full TCP/protocol path while keeping the
grid cheap — then a closed-loop fleet of router-holding client threads
issues a mixed PUT / distributed-REDUCE workload against sharded
arrays.

Identity is checked on every reduction reply: mean/minimum/maximum/
variance must equal the single-node :class:`~repro.runtime.lazy.LazyStream`
result **bit for bit** (the exact PREDUCE moments guarantee it).  ``identity_failures`` in the
result payload counts violations; the CI cluster job asserts it is
zero over a 200-request smoke.

The result dict follows the ``BENCH_service.json`` shape: one metrics
block per cell, ready for the experiment engine's cross-run index.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.cluster.hashring import NodeInfo, ShardMap
from repro.cluster.node import ClusterNode, NodeConfig
from repro.cluster.router import ClusterClient
from repro.core.compressor import SZOps
from repro.runtime.lazy import LazyStream
from repro.service.server import ThreadedServer

__all__ = ["local_cluster", "run_cluster_bench"]

_BLOCK_SIZE = 64
#: Reductions the mixed workload cycles through; every reply must be
#: bit-identical to the single-node value.
_CHECKED_REDUCTIONS = ("mean", "minimum", "maximum", "variance")


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


def _quantile(samples: list[float], frac: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    rank = int(frac * 100) - 1
    return float(statistics.quantiles(samples, n=100, method="inclusive")[rank])


def run_cluster_bench(
    n_nodes: int = 3,
    replicas: int = 2,
    n_clients: int = 4,
    requests_per_client: int = 25,
    n_arrays: int = 4,
    chunks: int = 6,
    n_elements: int = 30_000,
    eps: float = 1e-3,
    seed: int = 20240624,
) -> dict[str, Any]:
    """One cluster bench cell: mixed PUT + distributed-REDUCE load.

    Returns a JSON-able metrics payload (throughput, latency quantiles,
    failover/epoch counters, and the identity-failure count).
    """
    rng = np.random.default_rng(seed)
    codec = SZOps(block_size=_BLOCK_SIZE)
    arrays: list[tuple[str, Any]] = []
    expected: dict[tuple[str, str], float] = {}
    for i in range(n_arrays):
        data = np.cumsum(rng.normal(scale=5e-3, size=n_elements)).astype(np.float32)  # szops: ignore[SZL002] -- synthetic float32 input field; the cast is the I/O boundary
        c = codec.compress(data, eps)
        name = f"bench-{i}"
        arrays.append((name, c))
        for reduction in _CHECKED_REDUCTIONS:
            expected[(name, reduction)] = float(getattr(LazyStream(c), reduction)())

    with local_cluster(n_nodes, replicas=replicas) as (router, _handles):
        for name, c in arrays:
            router.put(name, c, chunks=chunks)

        latencies: list[list[float]] = [[] for _ in range(n_clients)]
        errors: list[str] = []
        identity_failures = [0]
        lock = threading.Lock()
        barrier = threading.Barrier(n_clients + 1)

        def worker(idx: int) -> None:
            try:
                barrier.wait()
                local_rng = np.random.default_rng(seed + idx + 1)
                for r in range(requests_per_client):
                    name, _c = arrays[(idx + r) % len(arrays)]
                    reduction = _CHECKED_REDUCTIONS[r % len(_CHECKED_REDUCTIONS)]
                    if r % 10 == 9:
                        # Occasional write keeps PUT in the mix.
                        extra = local_rng.normal(scale=5e-3, size=2048).cumsum().astype(np.float32)  # szops: ignore[SZL002] -- synthetic float32 input field; the cast is the I/O boundary
                        t0 = time.perf_counter()
                        router.put(f"w-{idx}-{r}", codec.compress(extra, eps))
                        latencies[idx].append(time.perf_counter() - t0)
                        continue
                    t0 = time.perf_counter()
                    value = router.reduce(name, reduction)
                    latencies[idx].append(time.perf_counter() - t0)
                    if value != expected[(name, reduction)]:
                        with lock:
                            identity_failures[0] += 1
            except Exception as exc:  # collected, not raised: the bench reports
                with lock:
                    errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
                if barrier.n_waiting:
                    barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"cluster-client-{i}")
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t_start = time.perf_counter()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t_start
        telemetry = router.telemetry.snapshot()

    flat = sorted(s for per_client in latencies for s in per_client)
    total = n_clients * requests_per_client
    return {
        "nodes": n_nodes,
        "replicas": replicas,
        "clients": n_clients,
        "chunks": chunks,
        "arrays": n_arrays,
        "n_elements": n_elements,
        "total_requests": total,
        "completed_requests": len(flat),
        "errors": errors,
        "identity_failures": identity_failures[0],
        "wall_seconds": wall_s,
        "throughput_rps": len(flat) / wall_s if wall_s > 0 else 0.0,
        "latency_p50_ms": 1e3 * _quantile(flat, 0.50),
        "latency_p99_ms": 1e3 * _quantile(flat, 0.99),
        "latency_mean_ms": 1e3 * (sum(flat) / len(flat)) if flat else 0.0,
        "router_counters": telemetry["counters"],
        "router_keyed_counters": telemetry["keyed_counters"],
        "ok": not errors and identity_failures[0] == 0,
    }
