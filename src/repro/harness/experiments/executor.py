"""Cell execution: one factor assignment in, one metrics document out.

Every timed workload of the repository has its one implementation here.
Eight workloads, all routed through the *existing* layers (nothing here
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
    Table IV and the Figures 5/6 substrate: for one (dataset, op, codec),
    the traditional workflow's stage times (decompress / operate /
    compress) with that codec vs the SZOps compressed-domain kernel time.
    A table without a ``codec`` factor measures SZp.

``ratios``
    Tables VI and VII and the SZp format ablation: for one (dataset,
    codec, eps, mode), the mean per-field compression ratio, plus the
    constant and total block counts when the codec is SZOps.

``plateau_sweep``
    The constant-block ablation: a synthetic field with the given plateau
    fraction, its constant-block share, and the cold ``mean`` kernel time.

``fusion``
    The ``runtime-fusion`` table: the fused negate -> xS -> mean
    chain against the eager three-op replay (cache off, cache on), with
    identical results asserted.

``service``
    The ``service-batching`` table (``repro bench-serve``): a real
    server with micro-batching on, then off, under the same closed-loop
    OP load, every reply checked against the eager chain; plus
    compressed-domain REDUCE timed against GET + decompress + ``np.mean``.

``cluster``
    The ``cluster-scale`` table (``repro cluster bench``): a
    local cluster under mixed PUT / distributed-REDUCE load, every
    reduction reply checked bit for bit against the single-node value.

Timing goes through two helpers only: :func:`_best_and_reps` (best of
``repeats``, every sample kept as ``*_seconds_reps`` so the report layer
can attach confidence intervals) and :func:`_closed_loop` (a client fleet
with p50/p99 latencies from :func:`_quantile`).
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, ContextManager

import numpy as np

from repro.harness.config import BenchConfig
from repro.harness.experiments.runtable import Cell, RunTable
from repro.metrics import Timer

if TYPE_CHECKING:
    from repro.service.server import ThreadedServer

__all__ = [
    "DEFAULT_SCALAR",
    "ExecutionContext",
    "WORKLOADS",
    "execute_cell",
    "chain_for_depth",
]

#: Scalar operand used for scalar add/sub/mul across the evaluation
#: (mirrors the paper's Section V examples).
DEFAULT_SCALAR = 3.14

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


def _chain_labels(chain: list[tuple[str, float | None]]) -> list[str]:
    return [n if s is None else f"{n}={s:g}" for n, s in chain]


def _best_and_reps(
    fn: Callable[[], Any],
    repeats: int,
    prepare: Callable[[], object] | None = None,
) -> tuple[float, list[float], Any]:
    """Run ``fn`` ``repeats`` times; return (best_s, all samples, best run's value).

    ``prepare`` runs untimed before every repetition (e.g. a cache clear).
    """
    reps: list[float] = []
    best_s, value = float("inf"), None
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        with Timer() as t:
            out = fn()
        reps.append(t.seconds)
        if t.seconds < best_s:
            best_s, value = t.seconds, out
    return best_s, reps, value


def _quantile(samples: list[float], frac: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    rank = int(frac * 100) - 1
    return float(statistics.quantiles(samples, n=100, method="inclusive")[rank])


def _closed_loop(
    clients: int,
    requests_per_client: int,
    connect: Callable[[int], ContextManager[Any]],
    request: Callable[[Any, int, int], bool],
) -> dict[str, Any]:
    """Closed-loop load: ``clients`` threads issue their requests back to back.

    ``connect(i)`` opens client ``i``'s session before the start barrier;
    ``request(session, i, r)`` issues request ``r`` and says whether its
    reply was correct (``False`` counts in ``mismatched_replies``).  A
    client that raises stops and lands in ``errors``: the cell reports it
    instead of raising.
    """
    latencies: list[list[float]] = [[] for _ in range(clients)]
    mismatches = [0] * clients
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker(idx: int) -> None:
        started = False
        try:
            with connect(idx) as session:
                barrier.wait()
                started = True
                for r in range(requests_per_client):
                    t0 = time.perf_counter()
                    correct = request(session, idx, r)
                    latencies[idx].append(time.perf_counter() - t0)
                    mismatches[idx] += not correct
        except Exception as exc:  # recorded, not raised: the cell reports
            with lock:
                errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
            if not started:
                barrier.abort()  # release everyone waiting on a fleet that cannot form

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"load-client-{i}")
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed before the start; its error is recorded
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t_start

    flat = [s for per_client in latencies for s in per_client]
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total_requests": clients * requests_per_client,
        "completed_requests": len(flat),
        "errors": errors,
        "mismatched_replies": sum(mismatches),
        "wall_seconds": wall_s,
        "throughput_rps": len(flat) / wall_s if wall_s > 0 else 0.0,
        "latency_p50_ms": 1e3 * _quantile(flat, 0.50),
        "latency_p99_ms": 1e3 * _quantile(flat, 0.99),
        "latency_mean_ms": 1e3 * (sum(flat) / len(flat)) if flat else 0.0,
    }


def _op_load(
    handle: ThreadedServer,
    blob: bytes,
    chain: list[tuple[str, float | None]],
    expected: bytes,
    clients: int,
    requests_per_client: int,
) -> dict[str, Any]:
    """PUT ``blob`` on a running server, then drive ``chain`` OPs at it closed-loop."""
    from repro.service.client import ServiceClient

    with ServiceClient(handle.host, handle.port) as client:
        client.put("load", blob)
    return _closed_loop(
        clients,
        requests_per_client,
        lambda _idx: ServiceClient(handle.host, handle.port),
        lambda session, _idx, _r: session.op("load", chain) == expected,
    )


#: The SZp stream-format ablation (Section VI-B3): each level switches SZp
#: stream overheads off; ``SZp-stripped`` is the SZOps-shaped stream.
_SZP_VARIANTS: dict[str, dict[str, bool]] = {
    "SZp-no-lengths": {"store_block_lengths": False},
    "SZp-no-signmap": {"full_sign_bitmap": False},
    "SZp-no-align": {"word_align_payload": False},
    "SZp-stripped": {
        "store_block_lengths": False,
        "full_sign_bitmap": False,
        "word_align_payload": False,
    },
}


def _make_codec(name: str) -> Any:
    """A codec by table level: ``SZOps``, a baseline, or an SZp variant."""
    from repro.baselines import make_codec
    from repro.core.compressor import SZOps

    if name == "SZOps":
        return SZOps()
    if name in _SZP_VARIANTS:
        return make_codec("SZp", **_SZP_VARIANTS[name])
    return make_codec(name)


class ExecutionContext:
    """Shared, cached state across the cells of one run.

    Fields, reference streams, and reference reductions are deterministic
    functions of (dataset, eps) under a fixed :class:`BenchConfig`, so
    they are computed once and reused — the grid would otherwise
    recompress the same field for every backend level.
    """

    def __init__(self, cfg: BenchConfig) -> None:
        self.cfg = cfg
        self._fields: dict[str, tuple[str, np.ndarray]] = {}
        self._serial_streams: dict[tuple[str, float], bytes] = {}
        self._serial_reduce: dict[tuple[str, float], tuple[float, float]] = {}
        self._chain_refs: dict[tuple[str, float, int], bytes] = {}
        self._dataset_fields: dict[tuple[str, bool], dict[str, np.ndarray]] = {}
        self._codec_blobs: dict[tuple[str, float, str], tuple[Any, dict[str, Any]]] = {}

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
            codec = SZOps(n_threads=1, backend="serial")
            self._serial_streams[key] = codec.compress(arr, eps).to_bytes()
        return self._serial_streams[key]

    def serial_reduce(self, dataset: str, eps: float) -> tuple[float, float]:
        """``ops.mean``/``ops.variance`` of the serial stream.

        The reductions combine exact integer moments, so every backend at
        every worker count must reproduce them bit for bit.
        """
        key = (dataset, eps)
        if key not in self._serial_reduce:
            from repro.core import ops
            from repro.core.format import SZOpsCompressed

            stream = SZOpsCompressed.from_bytes(self.serial_stream(dataset, eps))
            self._serial_reduce[key] = (ops.mean(stream), ops.variance(stream))
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

    # -- paper-table fields and blobs ---------------------------------------

    def fields(self, dataset: str, all_fields: bool = False) -> dict[str, np.ndarray]:
        """The dataset's fields at the configured scale (cached).

        ``max_fields`` caps how many unless ``all_fields`` is set.
        """
        key = (dataset, all_fields)
        if key not in self._dataset_fields:
            from repro.datasets import generate_fields, get_dataset

            names = [f.name for f in get_dataset(dataset).fields]
            if not all_fields:
                names = self.cfg.limit_fields(names)
            self._dataset_fields[key] = generate_fields(
                dataset, scale=self.cfg.scale, seed=self.cfg.seed, fields=names
            )
        return self._dataset_fields[key]

    def workflow_blobs(
        self, dataset: str, eps: float, codec: str
    ) -> tuple[Any, dict[str, Any]]:
        """(codec instance, per-field compressed blobs) for ``codec`` (cached).

        ``codec`` names a level of :func:`_make_codec`.
        """
        key = (dataset, eps, codec)
        if key not in self._codec_blobs:
            instance = _make_codec(codec)
            blobs = {
                f: instance.compress(a, eps) for f, a in self.fields(dataset).items()
            }
            self._codec_blobs[key] = (instance, blobs)
        return self._codec_blobs[key]


# --------------------------------------------------------------------------
# Workload: pipeline (the factorial tentpole)
# --------------------------------------------------------------------------


def _run_pipeline_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    from repro.core.compressor import SZOps
    from repro.core.config import SZOpsConfig
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

    codec = SZOps(
        config=SZOpsConfig(n_threads=workers, backend=backend, bitpack_kernel=kernel)
    )
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
        "block_size": codec.block_size,
    }

    def compress() -> tuple[SZOpsCompressed, dict[str, float]]:
        timings: dict[str, float] = {}
        return codec.compress(arr, eps, timings=timings), timings

    try:
        best_c, compress_reps, (stream, stages) = _best_and_reps(compress, repeats)
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
        best_r, reduce_reps, (mu, var) = _best_and_reps(
            lambda: (parallel_mean(stream, be), parallel_variance(stream, be)),
            repeats,
        )
    same_reduce = (mu, var) == ctx.serial_reduce(dataset, eps)

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
                "chain": _chain_labels(chain),
                "chain_seconds": best_chain,
                "chain_seconds_reps": chain_reps,
                "chain_identical": bool(chain_identical),
            }
        )
        ok = ok and bool(chain_identical)

    if clients > 0:
        from repro.service.server import ServiceConfig, ThreadedServer

        requests_per_client = int(table.options.get("requests_per_client", 4))
        batching = bool(f.get("batching", True))
        depth = max(chain_depth, 1)
        config = ServiceConfig(
            batching=batching,
            max_pending=max(64, 4 * clients * requests_per_client),
        )
        with ThreadedServer(config) as handle:
            service = _op_load(
                handle,
                stream_bytes,
                chain_for_depth(depth),
                ctx.chain_reference(dataset, eps, depth),
                clients,
                requests_per_client,
            )
        service["batching"] = batching
        service["replies_identical"] = (
            service["mismatched_replies"] == 0
            and service["completed_requests"] == service["total_requests"]
        )
        metrics["service"] = service
        ok = ok and service["replies_identical"] and not service["errors"]

    metrics["ok"] = ok
    return metrics


# --------------------------------------------------------------------------
# Workload: ops_matrix (Figures 5/6 substrate)
# --------------------------------------------------------------------------


def _run_ops_matrix_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    """One (dataset, eps, op, codec) cell: the codec's three stages vs SZOps.

    ``szops_kernel_seconds`` is the cold kernel, the paper's semantics: an
    op on a stream it has not decoded before.  Every op cell of a dataset
    shares the same streams, so with the decoded-block cache on a later op
    would read the view (and memoised moments) an earlier one decoded.
    ``szops_kernel_warm_seconds`` reports that cache hit beside it: the
    same call right after one untimed call on the same stream.  Negation
    and scalar add/subtract never read the cache, so for them the warm
    call is only the third back-to-back call on the same planes.  One
    untimed traditional call runs before the first timed repeat, so the
    first cell of a table does not carry the process's one-time costs.
    """
    from repro.core.ops.dispatch import OPERATIONS
    from repro.metrics import gb_per_s, mb_per_s
    from repro.runtime import cache_disabled
    from repro.workflow import run_compressed, run_traditional

    f = cell.factors
    dataset = str(f["dataset"])
    eps = float(f["eps"])
    op = str(f["op"])
    codec_name = str(f.get("codec", "SZp"))
    repeats = max(cfg.repeats, table.repeats)

    codec, blobs = ctx.workflow_blobs(dataset, eps, codec_name)
    _, szops_blobs = ctx.workflow_blobs(dataset, eps, "SZOps")
    total_bytes = sum(a.nbytes for a in ctx.fields(dataset).values())
    scalar = DEFAULT_SCALAR if OPERATIONS[op].needs_scalar else None

    run_traditional(codec, next(iter(blobs.values())), op, scalar)  # warm-up
    # the traditional stages come from the repeat with the lowest total;
    # the cold and warm kernels are each their own best
    best: tuple[float, float, float] | None = None
    kernel = warm = float("inf")
    for _ in range(repeats):
        dec = opr = cmp_ = kern = hot = 0.0
        for fname in blobs:
            tres = run_traditional(codec, blobs[fname], op, scalar)
            dec += tres.timing.decompress
            opr += tres.timing.operate
            cmp_ += tres.timing.compress
            blob = szops_blobs[fname]
            with cache_disabled():
                kern += run_compressed(blob, op, scalar).kernel_seconds
            run_compressed(blob, op, scalar)  # prime the cache
            hot += run_compressed(blob, op, scalar).kernel_seconds
        if best is None or dec + opr + cmp_ < sum(best):
            best = (dec, opr, cmp_)
        kernel = min(kernel, kern)
        warm = min(warm, hot)
    assert best is not None

    total = sum(best)
    return {
        "dataset": dataset,
        "eps": eps,
        "op": op,
        "codec": codec_name,
        "repeats": repeats,
        "bytes": int(total_bytes),
        "traditional_decompress_seconds": best[0],
        "traditional_operate_seconds": best[1],
        "traditional_compress_seconds": best[2],
        "traditional_total_seconds": total,
        "traditional_mbs": mb_per_s(total_bytes, total),
        "traditional_gbs": gb_per_s(total_bytes, total),
        "szops_kernel_seconds": kernel,
        "szops_kernel_warm_seconds": warm,
        "szops_kernel_gbs": gb_per_s(total_bytes, kernel),
        "szops_kernel_warm_gbs": gb_per_s(total_bytes, warm),
        "speedup": total / kernel if kernel > 0 else float("inf"),
        "reduction_pct": 100.0 * (1.0 - kernel / total) if total > 0 else 0.0,
        "ok": kernel > 0.0,
    }


# --------------------------------------------------------------------------
# Workload: ratios (Tables VI/VII and the SZp format ablation)
# --------------------------------------------------------------------------


def _run_ratios_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    """Mean per-field ratio of one codec (or SZp variant) over a dataset.

    SZOps cells also count constant and total blocks (Table VI).  The
    table option ``all_fields`` counts every field regardless of
    ``max_fields``: the constant fraction is a per-dataset property.
    """
    from repro.metrics import mean_ratio

    f = cell.factors
    dataset = str(f["dataset"])
    codec_name = str(f["codec"])
    eps = float(f["eps"])
    mode = str(f["mode"])
    all_fields = bool(table.options.get("all_fields", False))

    codec = _make_codec(codec_name)
    fields = ctx.fields(dataset, all_fields)
    blobs = [codec.compress(arr, eps, mode=mode) for arr in fields.values()]
    metrics: dict[str, Any] = {
        "dataset": dataset,
        "codec": codec_name,
        "eps": eps,
        "mode": mode,
        "n_fields": len(fields),
        "bytes": int(sum(a.nbytes for a in fields.values())),
        "mean_ratio": mean_ratio([b.compression_ratio for b in blobs]),
    }
    if codec_name == "SZOps":
        const = sum(b.n_constant_blocks for b in blobs)
        total = sum(b.n_blocks for b in blobs)
        metrics.update(
            {
                "constant_blocks": const,
                "total_blocks": total,
                "constant_pct": 100.0 * const / max(total, 1),
            }
        )
    return metrics


# --------------------------------------------------------------------------
# Workload: plateau_sweep (the constant-block ablation)
# --------------------------------------------------------------------------


#: The synthetic plateau field the constant-block ablation sweeps.
_PLATEAU_SHAPE = (64, 96, 96)


def _run_plateau_sweep_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    """Section VI-B2: the mean kernel's time against the constant fraction."""
    from repro.core.compressor import SZOps
    from repro.core.ops import mean
    from repro.datasets.synthetic import FieldSpec, synthesize_field
    from repro.runtime import cache_disabled

    f = cell.factors
    plateau = float(f["plateau"])
    eps = float(f["eps"])
    spec = FieldSpec("sweep", beta=6.3, amplitude=0.03, plateau=plateau, noise=5e-5)
    c = SZOps().compress(synthesize_field(spec, _PLATEAU_SHAPE, seed=cfg.seed), eps)
    repeats = max(cfg.repeats, table.repeats, 3)
    # with the decoded-block cache on, every repeat after the first would
    # read back the moments memoised on ``c`` instead of running the kernel
    with cache_disabled():
        best, reps, value = _best_and_reps(lambda: mean(c), repeats)
    return {
        "plateau": plateau,
        "eps": eps,
        "shape": list(_PLATEAU_SHAPE),
        "repeats": len(reps),
        "constant_pct": 100.0 * c.constant_fraction,
        "mean_seconds": best,
        "mean_seconds_reps": reps,
        "mean": value,
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
# Workload: fusion (the runtime-fusion table)
# --------------------------------------------------------------------------


def _run_fusion_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    """Fused negate -> x0.1 -> mean against eager ops on the lead field.

    Four variants: **eager** (three ``apply_operation`` calls with the
    decoded-block cache off — every partial op decodes), **eager+cache**
    (the same calls, cache cleared before each repetition), **fused cold**
    (one ``apply_chain`` through :class:`LazyStream`: one decode, the
    pending transform folded into the reduction, no encode) and **fused
    warm**.  All four must return the identical mean.
    """
    from repro.core.compressor import SZOps
    from repro.core.ops.dispatch import apply_chain
    from repro.runtime import cache_disabled, clear_cache

    f = cell.factors
    dataset = str(f["dataset"])
    eps = float(f["eps"])
    fname, arr = ctx.lead_field(dataset)
    codec = SZOps()
    c = codec.compress(arr, eps)
    chain: list[tuple[str, float | None]] = [
        ("negation", None),
        ("scalar_multiply", 0.1),
        ("mean", None),
    ]
    reps = max(cfg.repeats, table.repeats)

    def eager() -> Any:
        return apply_chain(c, chain, fused=False)

    def fused() -> Any:
        return apply_chain(c, chain, fused=True)

    with cache_disabled():
        eager_s, _, eager_value = _best_and_reps(eager, reps)
        # Per-op breakdown of the eager chain (Figure 5 style).
        breakdown: dict[str, float] = {}
        stream: Any = c
        for name, s in chain:
            with Timer() as t:
                out = apply_chain(stream, [(name, s)], fused=False)
            breakdown[name] = t.seconds
            stream = out if not isinstance(out, float) else stream
    cached_s, _, cached_value = _best_and_reps(eager, reps, prepare=clear_cache)
    fused_s, _, fused_value = _best_and_reps(fused, reps, prepare=clear_cache)
    warm_s, _, warm_value = _best_and_reps(fused, reps)

    identical = eager_value == fused_value == cached_value == warm_value
    return {
        "experiment": "runtime_fusion",
        "chain": _chain_labels(chain),
        "dataset": dataset,
        "field": fname,
        "shape": list(arr.shape),
        "n_elements": int(arr.size),
        "eps": eps,
        "block_size": codec.block_size,
        "repeats": reps,
        "eager_seconds": eager_s,
        "eager_breakdown_seconds": breakdown,
        "eager_cached_seconds": cached_s,
        "fused_seconds": fused_s,
        "fused_warm_seconds": warm_s,
        "speedup_fused_vs_eager": eager_s / fused_s if fused_s > 0 else float("inf"),
        "speedup_warm_vs_eager": eager_s / warm_s if warm_s > 0 else float("inf"),
        "result_mean": eager_value,
        "identical_results": bool(identical),
        "ok": bool(identical),
    }


# --------------------------------------------------------------------------
# Workload: service (the service-batching table, repro bench-serve)
# --------------------------------------------------------------------------


def _run_service_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    """Batched vs unbatched serving of the depth-3 chain on one hot array.

    That is the load micro-batching is built for: the unbatched server
    pays one executor hop and one re-encode per request, the batched one
    answers a whole flight of identical requests from a single decode +
    encode.  The admission cap is sized above the fleet, so any error is
    a bug.
    """
    from repro.core.compressor import SZOps
    from repro.core.format import SZOpsCompressed
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, ThreadedServer

    f = cell.factors
    dataset = str(f["dataset"])
    eps = float(f["eps"])
    clients = int(f["clients"])
    requests_per_client = int(table.options.get("requests_per_client", 25))
    backend = str(table.options.get("backend", "serial"))
    n_workers = int(table.options.get("n_workers", 1))
    repeats = max(table.repeats, 3)

    fname, arr = ctx.lead_field(dataset)
    blob = ctx.serial_stream(dataset, eps)
    chain = chain_for_depth(3)
    expected = ctx.chain_reference(dataset, eps, len(chain))
    codec = SZOps()

    variants: dict[str, dict[str, Any]] = {}
    reduce_section: dict[str, Any] = {}
    for label, batching in (("batched", True), ("unbatched", False)):
        config = ServiceConfig(
            backend=backend,
            n_workers=n_workers,
            batching=batching,
            max_pending=max(64, 4 * clients * requests_per_client),
        )
        with ThreadedServer(config) as handle:
            load = _op_load(
                handle, blob, chain, expected, clients, requests_per_client
            )
            with ServiceClient(handle.host, handle.port) as client:
                if batching:
                    load["server_stats"] = {
                        k: v
                        for k, v in client.stats()["counters"].items()
                        if k.startswith("batch")
                    }
                else:
                    # Compressed-domain REDUCE vs fetch-and-decompress, both
                    # over the wire, on the unbatched server so neither path
                    # pays the coalescing window.
                    def fetch_and_mean() -> float:
                        raw = client.get("load")
                        decoded = codec.decompress(SZOpsCompressed.from_bytes(raw))
                        return float(np.mean(decoded))

                    reduce_s, _, reduce_value = _best_and_reps(
                        lambda: client.reduce("load", "mean"), repeats
                    )
                    fetch_s, _, fetch_value = _best_and_reps(fetch_and_mean, repeats)
                    reduce_section = {
                        "reduction": "mean",
                        "repeats": repeats,
                        "compressed_domain_seconds": reduce_s,
                        "fetch_decompress_seconds": fetch_s,
                        "speedup": fetch_s / reduce_s if reduce_s > 0 else float("inf"),
                        "compressed_domain_value": reduce_value,
                        "fetch_decompress_value": fetch_value,
                        "values_close": bool(
                            abs(reduce_value - fetch_value)
                            <= 1e-6 * max(1.0, abs(fetch_value))
                        ),
                    }
        variants[label] = load

    batched, unbatched = variants["batched"], variants["unbatched"]
    total_errors = len(batched["errors"]) + len(unbatched["errors"])
    identical = batched["mismatched_replies"] == unbatched["mismatched_replies"] == 0
    return {
        "experiment": "service_batching",
        "dataset": dataset,
        "field": fname,
        "shape": list(arr.shape),
        "n_elements": int(arr.size),
        "eps": eps,
        "block_size": codec.block_size,
        "blob_bytes": len(blob),
        "chain": _chain_labels(chain),
        "chain_depth": len(chain),
        "backend": backend,
        "n_workers": n_workers,
        "batched": batched,
        "unbatched": unbatched,
        "speedup_batched_vs_unbatched": (
            batched["throughput_rps"] / unbatched["throughput_rps"]
            if unbatched["throughput_rps"] > 0
            else float("inf")
        ),
        "reduce_vs_decompress": reduce_section,
        "total_errors": total_errors,
        "bit_identical_to_eager": identical,
        "ok": total_errors == 0 and identical,
    }


# --------------------------------------------------------------------------
# Workload: cluster (the cluster-scale table, repro cluster bench)
# --------------------------------------------------------------------------

#: Reductions the cluster load cycles through; every reply must be
#: bit-identical to the single-node value.
_CHECKED_REDUCTIONS = ("mean", "minimum", "maximum", "variance")


def _run_cluster_cell(
    cell: Cell, table: RunTable, cfg: BenchConfig, ctx: ExecutionContext
) -> dict[str, Any]:
    """Mixed PUT + distributed-REDUCE load on sharded arrays.

    Every tenth request of a client is a PUT of a fresh small array; the
    rest are reductions, each compared with the single-node
    :class:`~repro.runtime.lazy.LazyStream` value (exact PREDUCE moments
    make them equal bit for bit).
    """
    from contextlib import nullcontext

    from repro.cluster import local_cluster
    from repro.core.compressor import SZOps
    from repro.runtime.lazy import LazyStream

    f = cell.factors
    n_nodes = int(f["nodes"])
    replicas = int(f["replicas"])
    clients = int(f["clients"])
    requests_per_client = int(table.options.get("requests_per_client", 25))
    n_arrays = int(table.options.get("n_arrays", 4))
    chunks = int(table.options.get("chunks", 6))
    n_elements = int(table.options.get("n_elements", 30_000))
    eps = float(table.options.get("eps", 1e-3))

    rng = np.random.default_rng(cfg.seed)
    codec = SZOps()
    arrays: list[tuple[str, Any]] = []
    expected: dict[tuple[str, str], float] = {}
    for i in range(n_arrays):
        data = np.cumsum(rng.normal(scale=5e-3, size=n_elements)).astype(np.float32)
        c = codec.compress(data, eps)
        name = f"bench-{i}"
        arrays.append((name, c))
        for reduction in _CHECKED_REDUCTIONS:
            expected[(name, reduction)] = float(getattr(LazyStream(c), reduction)())

    with local_cluster(n_nodes, replicas=replicas) as (router, _handles):
        for name, c in arrays:
            router.put(name, c, chunks=chunks)

        def request(local_rng: np.random.Generator, idx: int, r: int) -> bool:
            if r % 10 == 9:
                extra = local_rng.normal(scale=5e-3, size=2048).cumsum().astype(np.float32)
                router.put(f"w-{idx}-{r}", codec.compress(extra, eps))
                return True
            name, _c = arrays[(idx + r) % len(arrays)]
            reduction = _CHECKED_REDUCTIONS[r % len(_CHECKED_REDUCTIONS)]
            return router.reduce(name, reduction) == expected[(name, reduction)]

        load = _closed_loop(
            clients,
            requests_per_client,
            lambda idx: nullcontext(np.random.default_rng(cfg.seed + idx + 1)),
            request,
        )
        telemetry = router.telemetry.snapshot()

    identity_failures = load.pop("mismatched_replies")
    return {
        "nodes": n_nodes,
        "replicas": replicas,
        "chunks": chunks,
        "arrays": n_arrays,
        "n_elements": n_elements,
        **load,
        "identity_failures": identity_failures,
        "router_counters": telemetry["counters"],
        "router_keyed_counters": telemetry["keyed_counters"],
        "ok": not load["errors"] and identity_failures == 0,
    }


WORKLOADS: dict[str, Callable[..., dict[str, Any]]] = {
    "pipeline": _run_pipeline_cell,
    "bitpack": _run_bitpack_cell,
    "ops_matrix": _run_ops_matrix_cell,
    "ratios": _run_ratios_cell,
    "plateau_sweep": _run_plateau_sweep_cell,
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
