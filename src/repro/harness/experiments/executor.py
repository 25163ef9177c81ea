"""Cell execution: one factor assignment in, one metrics document out.

Five workloads, all routed through the *existing* layers (nothing here
re-implements a kernel):

``pipeline``
    The tentpole factorial: compress the dataset's lead field through the
    chosen :mod:`repro.parallel.backends` execution backend (QZ/LZ/BF
    stage split recorded) with the chosen bitpack ``kernel`` variant,
    decompress, run the backend-routed mean/variance reductions,
    optionally time a fused operation chain of the requested depth
    (``chain_depth``), and optionally drive a real
    :class:`repro.service.server.ThreadedServer` with ``clients``
    closed-loop clients.  Streams, reductions, chain results, and service
    replies are all checked against serial references — the identity
    flags are the regression gate's unconditional half.  Because the
    serial reference stream is compressed with the default kernel, the
    ``stream_identical`` flag doubles as the cross-kernel bit-identity
    proof.

``bitpack``
    The ``szops bench-bitpack`` microbenchmark: per (kernel, width) cell,
    pack/unpack throughput over a fixed random lane array, with payload
    byte-identity vs the ``bitarray`` reference kernel and exact
    round-trip asserted.

``ops_matrix``
    The Figures 5/6 substrate: for one (dataset, op), the SZp traditional
    workflow stage times (decompress / operate / compress) vs the SZOps
    compressed-domain kernel time.

``fusion``
    Wraps :func:`repro.harness.runner.run_runtime_fusion` (the
    BENCH_runtime.json producer) as a single cell.

``service``
    Wraps :func:`repro.service.bench.run_service_bench` (the
    BENCH_service.json producer) as a single cell.

Per-repetition timing samples are kept (``*_seconds_reps``) so the report
layer can attach confidence intervals instead of a bare best-of.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.harness.config import BenchConfig
from repro.harness.experiments.runtable import Cell, RunTable
from repro.metrics import Timer

__all__ = ["ExecutionContext", "WORKLOADS", "execute_cell", "chain_for_depth"]

_BLOCK_SIZE = 64

#: The canonical pointwise op cycle fused chains draw their prefix from.
_CHAIN_CYCLE: tuple[tuple[str, float | None], ...] = (
    ("negation", None),
    ("scalar_add", 0.25),
    ("scalar_multiply", 1.5),
)


def chain_for_depth(depth: int) -> list[tuple[str, float | None]]:
    """A deterministic pointwise chain of the requested depth."""
    if depth < 1:
        raise ValueError("chain depth must be >= 1")
    cycle = list(_CHAIN_CYCLE)
    return [cycle[i % len(cycle)] for i in range(depth)]


def _best_and_reps(
    fn: Callable[[], Any], repeats: int
) -> tuple[float, list[float], Any]:
    """Run ``fn`` ``repeats`` times; return (best_s, all samples, last value)."""
    reps: list[float] = []
    value: Any = None
    for _ in range(repeats):
        with Timer() as t:
            value = fn()
        reps.append(t.seconds)
    return min(reps), reps, value


class ExecutionContext:
    """Shared, cached state across the cells of one run.

    Fields, reference streams, and reference reductions are deterministic
    functions of (dataset, eps, workers) under a fixed
    :class:`BenchConfig`, so they are computed once and reused — the grid
    would otherwise recompress the same field for every backend level.
    """

    def __init__(self, cfg: BenchConfig) -> None:
        self.cfg = cfg
        self._fields: dict[str, tuple[str, np.ndarray]] = {}
        self._serial_streams: dict[tuple[str, float], bytes] = {}
        self._serial_reduce: dict[tuple[str, float, int], tuple[float, float]] = {}
        self._chain_refs: dict[tuple[str, float, int], bytes] = {}
        self._szp_blobs: dict[tuple[str, float], dict[str, Any]] = {}
        self._szops_blobs: dict[tuple[str, float], dict[str, Any]] = {}

    # -- pipeline references ----------------------------------------------

    def lead_field(self, dataset: str) -> tuple[str, np.ndarray]:
        """The dataset's first field at the configured scale (cached)."""
        if dataset not in self._fields:
            from repro.datasets import generate_fields, get_dataset

            fname = get_dataset(dataset).fields[0].name
            arr = generate_fields(
                dataset, scale=self.cfg.scale, seed=self.cfg.seed, fields=[fname]
            )[fname]
            self._fields[dataset] = (fname, arr)
        return self._fields[dataset]

    def serial_stream(self, dataset: str, eps: float) -> bytes:
        """Serial single-worker compressed stream: the bit-identity reference."""
        key = (dataset, eps)
        if key not in self._serial_streams:
            from repro.core.compressor import SZOps

            _, arr = self.lead_field(dataset)
            codec = SZOps(block_size=_BLOCK_SIZE, n_threads=1, backend="serial")
            self._serial_streams[key] = codec.compress(arr, eps).to_bytes()
        return self._serial_streams[key]

    def serial_reduce(
        self, dataset: str, eps: float, workers: int
    ) -> tuple[float, float]:
        """Serial-backend (mean, variance) at this worker count's chunking.

        Variance partials depend on the chunk layout, so the reference is
        per worker count — the same convention ``run_parallel_backends``
        uses.
        """
        key = (dataset, eps, workers)
        if key not in self._serial_reduce:
            from repro.core.format import SZOpsCompressed
            from repro.parallel.backends import get_backend
            from repro.runtime.reduce import parallel_mean, parallel_variance

            stream = SZOpsCompressed.from_bytes(self.serial_stream(dataset, eps))
            with get_backend("serial", workers) as be:
                self._serial_reduce[key] = (
                    parallel_mean(stream, be),
                    parallel_variance(stream, be),
                )
        return self._serial_reduce[key]

    def chain_reference(self, dataset: str, eps: float, depth: int) -> bytes:
        """Eager (unfused) chain result bytes: the fusion identity reference."""
        key = (dataset, eps, depth)
        if key not in self._chain_refs:
            from repro.core.format import SZOpsCompressed
            from repro.core.ops.dispatch import apply_chain

            stream = SZOpsCompressed.from_bytes(self.serial_stream(dataset, eps))
            out = apply_chain(stream, chain_for_depth(depth), fused=False)
            self._chain_refs[key] = out.to_bytes()
        return self._chain_refs[key]

    # -- ops-matrix blobs --------------------------------------------------

    def workflow_blobs(self, dataset: str, eps: float) -> tuple[Any, Any, Any, Any, int]:
        """(szp codec, szops codec, szp blobs, szops blobs, total bytes)."""
        key = (dataset, eps)
        if key not in self._szp_blobs:
            from repro.baselines import make_codec
            from repro.core.compressor import SZOps
            from repro.harness.runner import prepare_fields

            fields = prepare_fields(self.cfg, dataset)
            szp = make_codec("SZp", block_size=_BLOCK_SIZE)
            szops = SZOps(block_size=_BLOCK_SIZE)
            self._szp_blobs[key] = {
                "codec": szp,
                "blobs": {f: szp.compress(a, eps) for f, a in fields.items()},
                "bytes": sum(a.nbytes for a in fields.values()),
            }
            self._szops_blobs[key] = {
                "codec": szops,
                "blobs": {f: szops.compress(a, eps) for f, a in fields.items()},
            }
        szp_entry = self._szp_blobs[key]
        szops_entry = self._szops_blobs[key]
        return (
            szp_entry["codec"],
            szops_entry["codec"],
            szp_entry["blobs"],
            szops_entry["blobs"],
            szp_entry["bytes"],
        )


# --------------------------------------------------------------------------
# Workload: pipeline (the factorial tentpole)
# --------------------------------------------------------------------------


def _run_pipeline_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    from repro.core.compressor import SZOps
    from repro.core.format import SZOpsCompressed
    from repro.core.ops.dispatch import apply_chain
    from repro.core.validate import bound_slack
    from repro.parallel.backends import get_backend
    from repro.runtime.reduce import parallel_mean, parallel_variance

    f = cell.factors
    dataset = str(f["dataset"])
    eps = float(f["eps"])
    backend = str(f["backend"])
    workers = int(f["workers"])
    chain_depth = int(f.get("chain_depth", 0))
    clients = int(f.get("clients", 0))
    kernel = str(f.get("kernel", "auto"))
    repeats = max(table.repeats, 1)

    fname, arr = ctx.lead_field(dataset)
    ref_stream = ctx.serial_stream(dataset, eps)

    metrics: dict[str, Any] = {
        "dataset": dataset,
        "field": fname,
        "eps": eps,
        "backend": backend,
        "workers": workers,
        "chain_depth": chain_depth,
        "clients": clients,
        "kernel": kernel,
        "repeats": repeats,
        "n_elements": int(arr.size),
        "bytes": int(arr.nbytes),
        "block_size": _BLOCK_SIZE,
    }

    from repro.core.config import SZOpsConfig

    codec = SZOps(
        config=SZOpsConfig(
            block_size=_BLOCK_SIZE,
            n_threads=workers,
            backend=backend,
            bitpack_kernel=kernel,
        )
    )
    try:
        best_c = float("inf")
        stages: dict[str, float] = {}
        stream = None
        compress_reps: list[float] = []
        for _ in range(repeats):
            timings: dict[str, float] = {}
            with Timer() as t:
                c = codec.compress(arr, eps, timings=timings)
            compress_reps.append(t.seconds)
            if t.seconds < best_c:
                best_c, stages, stream = t.seconds, timings, c
        assert stream is not None

        best_d, decompress_reps, out = _best_and_reps(
            lambda: codec.decompress(stream), repeats
        )

        stream_bytes = stream.to_bytes()
        same_stream = stream_bytes == ref_stream
        roundtrip_ok = bool(
            float(np.abs(out - arr).max()) <= eps + bound_slack(arr, eps)
        )
    finally:
        codec.close()

    with get_backend(backend, workers) as be:
        best_r, reduce_reps, _ = _best_and_reps(
            lambda: (parallel_mean(stream, be), parallel_variance(stream, be)),
            repeats,
        )
        mu = parallel_mean(stream, be)
        var = parallel_variance(stream, be)
    same_reduce = (mu, var) == ctx.serial_reduce(dataset, eps, workers)

    metrics.update(
        {
            "compress_seconds": best_c,
            "compress_seconds_reps": compress_reps,
            "compress_stage_seconds": {
                "QZ": stages.get("quantize_s", 0.0),
                "LZ": stages.get("lorenzo_s", 0.0),
                "BF": stages.get("encode_s", 0.0),
            },
            "compress_throughput_mbs": (
                arr.nbytes / 1e6 / best_c if best_c > 0 else 0.0
            ),
            "decompress_seconds": best_d,
            "decompress_seconds_reps": decompress_reps,
            "reduce_seconds": best_r,
            "reduce_seconds_reps": reduce_reps,
            "mean": mu,
            "variance": var,
            "stream_identical": bool(same_stream),
            "reductions_identical": bool(same_reduce),
            "roundtrip_ok": roundtrip_ok,
        }
    )

    ok = bool(same_stream and same_reduce and roundtrip_ok)

    if chain_depth > 0:
        chain = chain_for_depth(chain_depth)
        container = SZOpsCompressed.from_bytes(stream_bytes)
        best_chain, chain_reps, fused_out = _best_and_reps(
            lambda: apply_chain(container, chain, fused=True), repeats
        )
        chain_identical = (
            fused_out.to_bytes() == ctx.chain_reference(dataset, eps, chain_depth)
        )
        metrics.update(
            {
                "chain": [
                    n if s is None else f"{n}={s:g}" for n, s in chain
                ],
                "chain_seconds": best_chain,
                "chain_seconds_reps": chain_reps,
                "chain_identical": bool(chain_identical),
            }
        )
        ok = ok and bool(chain_identical)

    if clients > 0:
        service = _drive_service(
            cell, table, stream_bytes, chain_depth, clients,
            ctx, dataset, eps,
        )
        metrics["service"] = service
        ok = ok and service["replies_identical"] and not service["errors"]

    metrics["ok"] = ok
    return metrics


def _drive_service(
    cell: Cell,
    table: RunTable,
    blob: bytes,
    chain_depth: int,
    clients: int,
    ctx: ExecutionContext,
    dataset: str,
    eps: float,
) -> dict[str, Any]:
    """Stand up a real server and hammer it with a closed-loop client fleet."""
    import threading
    import time

    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, ThreadedServer

    requests_per_client = int(table.options.get("requests_per_client", 4))
    batching = bool(cell.factors.get("batching", True))
    depth = max(chain_depth, 1)
    chain = chain_for_depth(depth)
    expected = ctx.chain_reference(dataset, eps, depth)

    config = ServiceConfig(
        batching=batching,
        max_pending=max(64, 4 * clients * requests_per_client),
    )
    latencies: list[float] = []
    errors: list[str] = []
    mismatches = [0]
    lock = threading.Lock()

    with ThreadedServer(config) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            client.put("cell", blob)

        barrier = threading.Barrier(clients + 1)

        def worker(idx: int) -> None:
            try:
                with ServiceClient(handle.host, handle.port) as cl:
                    barrier.wait()
                    for _ in range(requests_per_client):
                        t0 = time.perf_counter()
                        reply = cl.op("cell", chain)
                        dt = time.perf_counter() - t0
                        with lock:
                            latencies.append(dt)
                            if reply != expected:
                                mismatches[0] += 1
            except Exception as exc:  # recorded, not raised: the cell reports
                with lock:
                    errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
                if barrier.n_waiting:
                    barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"exp-client-{i}")
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t_start = time.perf_counter()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t_start

    total = clients * requests_per_client
    return {
        "batching": batching,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total_requests": total,
        "completed_requests": len(latencies),
        "errors": errors,
        "wall_seconds": wall_s,
        "throughput_rps": len(latencies) / wall_s if wall_s > 0 else 0.0,
        "replies_identical": mismatches[0] == 0 and len(latencies) == total,
    }


# --------------------------------------------------------------------------
# Workload: ops_matrix (Figures 5/6 substrate)
# --------------------------------------------------------------------------


def _run_ops_matrix_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    from repro.core.ops.dispatch import OPERATIONS
    from repro.harness.runner import DEFAULT_SCALAR
    from repro.workflow import run_compressed, run_traditional

    f = cell.factors
    dataset = str(f["dataset"])
    eps = float(f["eps"])
    op = str(f["op"])
    repeats = max(table.repeats, 1)

    szp, _szops, szp_blobs, szops_blobs, total_bytes = ctx.workflow_blobs(
        dataset, eps
    )
    scalar = DEFAULT_SCALAR if OPERATIONS[op].needs_scalar else None

    best: tuple[float, float, float, float] | None = None
    for _ in range(repeats):
        dec = opr = cmp_ = kern = 0.0
        for fname in szp_blobs:
            tres = run_traditional(szp, szp_blobs[fname], op, scalar)
            dec += tres.timing.decompress
            opr += tres.timing.operate
            cmp_ += tres.timing.compress
            cres = run_compressed(szops_blobs[fname], op, scalar)
            kern += cres.kernel_seconds
        cand = (dec, opr, cmp_, kern)
        if best is None or sum(cand) < sum(best):
            best = cand
    assert best is not None

    szp_total = best[0] + best[1] + best[2]
    return {
        "dataset": dataset,
        "eps": eps,
        "op": op,
        "repeats": repeats,
        "bytes": int(total_bytes),
        "szp_decompress_seconds": best[0],
        "szp_operate_seconds": best[1],
        "szp_compress_seconds": best[2],
        "szp_total_seconds": szp_total,
        "szops_kernel_seconds": best[3],
        "speedup": szp_total / best[3] if best[3] > 0 else float("inf"),
        "ok": best[3] > 0.0,
    }


# --------------------------------------------------------------------------
# Workload: bitpack (kernel microbenchmark, the bench-bitpack substrate)
# --------------------------------------------------------------------------


def _run_bitpack_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    from repro.bitstream import get_kernel

    f = cell.factors
    kernel_name = str(f["kernel"])
    width = int(f["width"])
    repeats = max(table.repeats, 1)
    size = int(table.options.get("size", 1 << 20))

    # Deterministic lanes per width, shared by every kernel level so the
    # byte-identity comparison is apples-to-apples.
    rng = np.random.default_rng(cfg.seed + width)
    if width == 0:
        values = np.zeros(size, dtype=np.uint64)
    else:
        values = rng.integers(0, 1 << min(width, 63), size=size, dtype=np.uint64)
        if width == 64:
            values |= rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)

    kern = get_kernel(kernel_name)
    ref = get_kernel("bitarray")

    best_pack, pack_reps, packed = _best_and_reps(
        lambda: kern.pack_uints(values, width), repeats
    )
    assert packed is not None
    best_unpack, unpack_reps, out = _best_and_reps(
        lambda: kern.unpack_uints(packed, values.size, width), repeats
    )

    identical = packed.tobytes() == ref.pack_uints(values, width).tobytes()
    roundtrip_ok = bool(np.array_equal(out, values))
    return {
        "kernel": kernel_name,
        "width": width,
        "size": int(values.size),
        "repeats": repeats,
        "payload_bytes": int(packed.size),
        "pack_seconds": best_pack,
        "pack_seconds_reps": pack_reps,
        "unpack_seconds": best_unpack,
        "unpack_seconds_reps": unpack_reps,
        "pack_mlanes_per_s": (
            values.size / 1e6 / best_pack if best_pack > 0 else 0.0
        ),
        "unpack_mlanes_per_s": (
            values.size / 1e6 / best_unpack if best_unpack > 0 else 0.0
        ),
        "identical_to_bitarray": bool(identical),
        "roundtrip_ok": roundtrip_ok,
        "ok": bool(identical and roundtrip_ok),
    }


# --------------------------------------------------------------------------
# Workloads: fusion / service (the wrapped legacy BENCH producers)
# --------------------------------------------------------------------------


def _run_fusion_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    import dataclasses

    from repro.harness.runner import run_runtime_fusion

    f = cell.factors
    cell_cfg = dataclasses.replace(
        cfg, datasets=(str(f["dataset"]),), eps=float(f["eps"])
    )
    result = run_runtime_fusion(cell_cfg, min_repeats=table.repeats)
    metrics = dict(result.extras["bench"])
    metrics["ok"] = bool(metrics["identical_results"])
    return metrics


def _run_service_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    from repro.service.bench import run_service_bench

    f = cell.factors
    metrics = dict(
        run_service_bench(
            dataset=str(f["dataset"]),
            scale=cfg.scale,
            eps=float(f["eps"]),
            n_clients=int(f["clients"]),
            requests_per_client=int(table.options.get("requests_per_client", 25)),
            backend=str(table.options.get("backend", "serial")),
            n_workers=int(table.options.get("n_workers", 1)),
            seed=cfg.seed,
        )
    )
    metrics["ok"] = bool(
        metrics["total_errors"] == 0 and metrics["bit_identical_to_eager"]
    )
    return metrics


def _run_cluster_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    from repro.cluster.bench import run_cluster_bench

    f = cell.factors
    metrics = dict(
        run_cluster_bench(
            n_nodes=int(f["nodes"]),
            replicas=int(f["replicas"]),
            n_clients=int(f["clients"]),
            requests_per_client=int(table.options.get("requests_per_client", 25)),
            n_arrays=int(table.options.get("n_arrays", 4)),
            chunks=int(table.options.get("chunks", 6)),
            n_elements=int(table.options.get("n_elements", 30_000)),
            eps=float(table.options.get("eps", 1e-3)),
            seed=cfg.seed,
        )
    )
    # run_cluster_bench already sets "ok" (no errors, zero identity failures).
    return metrics


WORKLOADS: dict[str, Callable[..., dict[str, Any]]] = {
    "pipeline": _run_pipeline_cell,
    "bitpack": _run_bitpack_cell,
    "ops_matrix": _run_ops_matrix_cell,
    "fusion": _run_fusion_cell,
    "service": _run_service_cell,
    "cluster": _run_cluster_cell,
}


def execute_cell(
    cell: Cell,
    table: RunTable,
    cfg: BenchConfig,
    ctx: ExecutionContext,
) -> dict[str, Any]:
    """Execute one cell and return its metrics document (with an ``ok`` flag)."""
    try:
        fn = WORKLOADS[cell.workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {cell.workload!r}; available: "
            f"{', '.join(sorted(WORKLOADS))}"
        ) from None
    metrics = fn(cell, table, cfg, ctx)
    metrics.setdefault("ok", True)
    return metrics
