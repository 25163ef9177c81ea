"""Command-line interface: compress, decompress, and operate on streams.

SDRBench-style headerless binary fields go in; SZOps streams come out, and
every compressed-domain operation is available without ever materializing
the decompressed array::

    python -m repro compress U.f32 U.szops --shape 100,500,500 --eps 1e-4
    python -m repro info U.szops
    python -m repro stats U.szops
    python -m repro op U.szops scalar_add --scalar 273.15 -o K.szops
    python -m repro op U.szops mean
    python -m repro chain U.szops negation scalar_multiply=0.1 mean
    python -m repro decompress K.szops K.f32
    python -m repro serve --port 7201
    python -m repro bench-serve -o service-report.json
    python -m repro experiment run perf-smoke --index runs/experiments.db
    python -m repro experiment report --index runs/experiments.db
    python -m repro experiment compare --index runs/experiments.db

Input/output binary convention matches :mod:`repro.datasets.io`:
little-endian float32 (or float64 with ``--dtype f64``), C order.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import SZOps, ops
from repro.core.format import SZOpsCompressed
from repro.core.ops.dispatch import OPERATIONS

__all__ = ["main", "build_parser"]

_DTYPES = {"f32": np.float32, "f64": np.float64}


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected e.g. 100,500,500")
    if not dims or any(d <= 0 for d in dims):
        raise argparse.ArgumentTypeError(f"shape dimensions must be positive: {text!r}")
    return dims


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    from repro.core.config import VALID_BACKENDS

    p.add_argument(
        "--backend",
        choices=VALID_BACKENDS,
        default="threads",
        help=(
            "execution backend for the chunked hot paths (processes = warm "
            "worker pool with shared-memory transport); all backends produce "
            "bit-identical results"
        ),
    )


def _add_report_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the run's report.json here",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SZOps: error-bounded lossy compression with compressed-domain operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a raw binary field")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)
    p.add_argument("--shape", type=_parse_shape, required=True, help="e.g. 100,500,500")
    p.add_argument("--eps", type=float, required=True, help="error bound")
    p.add_argument("--rel", action="store_true", help="value-range-relative bound")
    p.add_argument("--dtype", choices=sorted(_DTYPES), default="f32")
    p.add_argument("--block-size", type=int, default=64)
    p.add_argument("--threads", type=int, default=1)
    _add_backend_arg(p)

    p = sub.add_parser("decompress", help="decompress a stream to raw binary")
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)

    p = sub.add_parser("info", help="print stream metadata")
    p.add_argument("input", type=Path)

    p = sub.add_parser("stats", help="compressed-domain statistics")
    p.add_argument("input", type=Path)

    p = sub.add_parser(
        "op", help="apply a Table II operation (reductions print, ops write)"
    )
    p.add_argument("input", type=Path)
    p.add_argument("name", choices=list(OPERATIONS))
    p.add_argument("--scalar", type=float, default=None)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser(
        "chain",
        help="run a fused operation chain (one decode, at most one encode)",
        description=(
            "Apply a chain of operations through the lazy fusion runtime. "
            "Steps are operation names, with scalars attached as name=value "
            "(e.g. 'negation scalar_multiply=0.1 mean'). A reduction may "
            "only appear as the final step; chains ending in a pointwise "
            "operation write a stream and need -o."
        ),
    )
    p.add_argument("input", type=Path)
    p.add_argument(
        "steps", nargs="+", metavar="step", help="operation name or name=scalar"
    )
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument(
        "--no-fuse",
        action="store_true",
        help="replay the chain eagerly, one op at a time (for comparison)",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="route fused reduction partial sums through this many workers",
    )
    _add_backend_arg(p)
    p.add_argument(
        "--time", action="store_true", help="print the chain's wall time"
    )

    p = sub.add_parser(
        "bench-bitpack",
        help="microbenchmark the bitpack kernel variants (kernel x width)",
        description=(
            "Run the bitpack-kernels table through the experiment engine: "
            "pack/unpack throughput for every registered kernel variant at "
            "each bit width over a fixed random lane array, asserting "
            "payload byte-identity against the bitarray reference and exact "
            "round-trips. See docs/KERNELS.md."
        ),
    )
    p.add_argument(
        "--widths",
        default=None,
        help="comma-separated bit widths (default 1,2,3,4,5,8,11,12,16,24,32)",
    )
    p.add_argument(
        "--size",
        type=int,
        default=1 << 20,
        help="lanes per cell (default 1048576)",
    )
    p.add_argument("--repeats", type=int, default=None, help="repeat count override")
    _add_report_arg(p)

    p = sub.add_parser(
        "serve",
        help="run the compressed-array op server",
        description=(
            "Serve named compressed arrays over TCP: PUT/GET streams, "
            "apply fused pointwise chains (OP), run compressed-domain "
            "reductions (REDUCE), and expose live telemetry (STATS) and "
            "health (HEALTH). Concurrent requests against the same array "
            "are micro-batched; overload sheds as BUSY; SIGTERM/SIGINT "
            "drain in-flight requests before exit. See docs/SERVICE.md."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = pick an ephemeral port")
    p.add_argument(
        "--threads", type=int, default=1, help="workers for chunked reductions"
    )
    _add_backend_arg(p)
    p.add_argument(
        "--byte-budget",
        type=int,
        default=256 << 20,
        help="store budget in bytes before LRU eviction (default 256 MiB)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission cap; excess requests shed as BUSY",
    )
    p.add_argument(
        "--timeout", type=float, default=30.0, help="default per-request deadline (s)"
    )
    p.add_argument(
        "--window",
        type=float,
        default=0.002,
        help=(
            "micro-batching window in seconds, opened only while another "
            "request is queued or executing (0 keeps dedup, no delay)"
        ),
    )
    p.add_argument(
        "--no-batching", action="store_true", help="disable micro-batching entirely"
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the static stream verifier on PUT (trusted peers only)",
    )
    p.add_argument(
        "--debug-delay-s",
        type=float,
        default=0.0,
        help="artificial kernel delay per OP/REDUCE (load and drain drills)",
    )

    p = sub.add_parser(
        "cluster",
        help="sharded multi-node serving (node, serve, status, bench)",
        description=(
            "Operate a sharded cluster of op servers: run one shard node, "
            "boot an N-node local cluster with a consistent-hash shard map "
            "and heartbeat failure detection, ping every node in a map, or "
            "drive a mixed PUT/distributed-REDUCE load with bit-identity "
            "checks against the single-node reductions. See docs/CLUSTER.md."
        ),
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)

    pc = csub.add_parser("node", help="run one cluster shard node")
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument("--port", type=int, default=0, help="0 = pick an ephemeral port")
    pc.add_argument("--node-id", default="node-0", help="stable cluster identity")
    pc.add_argument(
        "--threads", type=int, default=1, help="workers for chunked reductions"
    )
    _add_backend_arg(pc)

    pc = csub.add_parser(
        "serve", help="boot an N-node local cluster (one subprocess per node)"
    )
    pc.add_argument("--nodes", type=int, default=3)
    pc.add_argument("--replicas", type=int, default=2)
    pc.add_argument("--vnodes", type=int, default=64, help="virtual nodes per node")
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument(
        "--threads", type=int, default=1, help="workers per node for reductions"
    )
    pc.add_argument(
        "--map-file",
        type=Path,
        default=Path("cluster-map.json"),
        help="where to write the shard map for clients (default cluster-map.json)",
    )

    pc = csub.add_parser("status", help="ping every node in a shard map")
    pc.add_argument(
        "--map-file",
        type=Path,
        default=Path("cluster-map.json"),
        help="shard map written by `cluster serve`",
    )

    pc = csub.add_parser(
        "bench",
        help="mixed PUT/distributed-REDUCE load with identity checks",
        description=(
            "Boot a local cluster, place sharded arrays, and drive a closed "
            "loop of concurrent routers issuing PUTs and distributed "
            "reductions. Every reduction reply is checked against the "
            "single-node LazyStream value (mean/min/max/variance "
            "bit-identical). -o writes the run's report.json."
        ),
    )
    pc.add_argument("--nodes", type=int, default=3)
    pc.add_argument("--replicas", type=int, default=2)
    pc.add_argument("--clients", type=int, default=4)
    pc.add_argument("--requests", type=int, default=25, help="requests per client")
    pc.add_argument("--arrays", type=int, default=4)
    pc.add_argument("--chunks", type=int, default=6, help="chunks per sharded array")
    pc.add_argument("--n-elements", type=int, default=30_000)
    pc.add_argument("--eps", type=float, default=1e-3)
    _add_report_arg(pc)

    p = sub.add_parser(
        "bench-serve",
        help="benchmark the service: batched vs unbatched serving throughput",
        description=(
            "Self-host the op server twice (micro-batching on and off) and "
            "drive it with a closed loop of concurrent clients issuing the "
            "same depth-3 pointwise chain. Reports throughput and p50/p99 "
            "latency per variant, verifies every reply bit-identical to the "
            "eager apply_chain result, and times compressed-domain REDUCE "
            "against fetch-and-decompress. -o writes the run's report.json."
        ),
    )
    p.add_argument("--dataset", default="Miranda")
    p.add_argument("--scale", type=float, default=0.5, help="synthetic scale")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--requests", type=int, default=25, help="requests per client")
    p.add_argument(
        "--threads", type=int, default=1, help="server workers for reductions"
    )
    _add_backend_arg(p)
    _add_report_arg(p)

    p = sub.add_parser(
        "experiment",
        help="factorial experiment runner (run tables, index, regression gates)",
        description=(
            "Run factorial experiment tables through the engine in "
            "repro.harness.experiments: execute cells across dataset x eps "
            "x backend x workers x chain depth x client count, persist "
            "per-run artifact directories, append to a cross-run SQLite "
            "index, render reports, and gate regressions against indexed "
            "baselines. See docs/EXPERIMENTS.md."
        ),
    )
    esub = p.add_subparsers(dest="experiment_command", required=True)

    pe = esub.add_parser("tables", help="list the predefined run tables")

    pe = esub.add_parser("run", help="execute a predefined run table")
    pe.add_argument("table", help="predefined table name (see `experiment tables`)")
    pe.add_argument(
        "--runs-dir", type=Path, default=Path("runs"),
        help="artifact root; each run gets runs/<run_id>/ (default runs/)",
    )
    pe.add_argument(
        "--index", type=Path, default=None,
        help="cross-run SQLite index to append to "
        "(default <runs-dir>/experiments.db; 'none' disables indexing)",
    )
    pe.add_argument(
        "--resume", type=Path, default=None,
        help="existing run directory: skip its completed cells, run the rest",
    )
    pe.add_argument("--scale", type=float, default=None, help="synthetic scale override")
    pe.add_argument("--repeats", type=int, default=None, help="table repeat override")
    pe.add_argument(
        "--workers", default=None,
        help="comma-separated worker counts (parallel-backends table only)",
    )
    pe.add_argument("--dataset", default=None, help="dataset override where supported")
    pe.add_argument("-q", "--quiet", action="store_true", help="no per-cell progress")

    pe = esub.add_parser("report", help="render report.json/report.md from the index")
    pe.add_argument("--index", type=Path, required=True)
    pe.add_argument("--run", default=None, help="run id (default: latest run)")
    pe.add_argument(
        "-o", "--output-dir", type=Path, default=None,
        help="write report.json + report.md here instead of printing",
    )
    pe.add_argument(
        "--json", action="store_true", help="print report.json instead of markdown"
    )

    pe = esub.add_parser(
        "compare", help="gate a run against an indexed baseline (CI perf gate)"
    )
    pe.add_argument("--index", type=Path, required=True)
    pe.add_argument(
        "--baseline", default=None,
        help="baseline run id (default: second-latest run of the current run's table)",
    )
    pe.add_argument("--current", default=None, help="current run id (default: latest)")
    pe.add_argument(
        "--max-regression-pct", type=float, default=20.0,
        help="timing regression threshold in percent (default 20)",
    )
    pe.add_argument(
        "--gate-timing", choices=("auto", "always", "never"), default="auto",
        help="timing gate policy: auto = only with >= 4 CPUs (identity "
        "checks always hard-fail regardless)",
    )

    p = sub.add_parser(
        "lint",
        help="run every static analysis pass over python sources",
        description=(
            "Run the domain-aware static analysis passes over python "
            "sources: the syntactic SZL rules, the LCK lock-discipline and "
            "lock-order rules, the abstract-interpretation passes "
            "(SZL101/102/103, SHM, ASY, TNT, NPA) and, unless --select is "
            "given, the SZL099 stale-suppression check. With no paths, "
            "lints the installed repro package. Exits 1 when any "
            "error-severity finding remains."
        ),
    )
    p.add_argument(
        "paths", nargs="*", type=Path, help="files or directories (default: repro)"
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="fmt"
    )
    p.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (e.g. SZL001,SZL004)",
    )
    p.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REV",
        help="incremental mode: run the per-file passes only on .py files "
        "changed since REV (default HEAD, i.e. the working tree diff plus "
        "untracked files). Cross-file passes still see every target, so "
        "the findings equal a full run's restricted to the changed files.",
    )
    p.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout "
        "(a one-line summary still prints)",
    )

    p = sub.add_parser(
        "verify-stream",
        help="statically verify serialized streams without decompressing",
        description=(
            "Check container structure of serialized SZOps/SZp streams: "
            "magic, version, header plausibility, per-block bit widths, "
            "section sizes against the width plane, offset monotonicity, "
            "trailing bytes. Exits 1 on any error finding."
        ),
    )
    p.add_argument("inputs", nargs="+", type=Path)
    p.add_argument(
        "--stream-format",
        choices=("auto", "szops", "szp"),
        default="auto",
        help="container format (auto sniffs the SZOps magic)",
    )
    p.add_argument(
        "--n-elements",
        type=int,
        default=None,
        help="element count (required for SZp payloads, which omit it)",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="fmt"
    )

    return parser


def _load_stream(path: Path) -> SZOpsCompressed:
    return SZOpsCompressed.from_bytes(path.read_bytes())


def _cmd_compress(args) -> int:
    dtype = _DTYPES[args.dtype]
    raw = np.fromfile(args.input, dtype=np.dtype(dtype).newbyteorder("<"))
    expected = int(np.prod(args.shape))
    if raw.size != expected:
        print(
            f"error: {args.input} holds {raw.size} values, shape "
            f"{args.shape} needs {expected}",
            file=sys.stderr,
        )
        return 2
    with SZOps(
        block_size=args.block_size, n_threads=args.threads, backend=args.backend
    ) as codec:
        c = codec.compress(
            raw.reshape(args.shape), args.eps, mode="rel" if args.rel else "abs"
        )
    args.output.write_bytes(c.to_bytes())
    print(
        f"{args.input} -> {args.output}: {raw.nbytes} -> {c.compressed_nbytes} "
        f"bytes (ratio {c.compression_ratio:.2f}x, eps {c.eps:g}, "
        f"{100 * c.constant_fraction:.1f}% constant blocks)"
    )
    return 0


def _cmd_decompress(args) -> int:
    c = _load_stream(args.input)
    data = SZOps(block_size=c.block_size).decompress(c)
    np.ascontiguousarray(data, dtype=np.dtype(data.dtype).newbyteorder("<")).tofile(
        args.output
    )
    print(f"{args.input} -> {args.output}: shape {c.shape}, dtype {c.dtype}")
    return 0


def _cmd_info(args) -> int:
    c = _load_stream(args.input)
    print(f"shape:           {c.shape}")
    print(f"dtype:           {c.dtype}")
    print(f"error bound:     {c.eps:g} (absolute)")
    print(f"block size:      {c.block_size}")
    print(f"blocks:          {c.n_blocks} ({c.n_constant_blocks} constant, "
          f"{100 * c.constant_fraction:.1f}%)")
    print(f"compressed size: {c.compressed_nbytes} bytes")
    print(f"ratio:           {c.compression_ratio:.3f}x")
    return 0


def _cmd_stats(args) -> int:
    c = _load_stream(args.input)
    stats = ops.summary_statistics(c)
    print(f"mean:     {stats['mean']:+.8g}")
    print(f"variance: {stats['variance']:.8g}")
    print(f"std:      {stats['std']:.8g}")
    print(f"min:      {ops.minimum(c):+.8g}")
    print(f"max:      {ops.maximum(c):+.8g}")
    return 0


def _cmd_op(args) -> int:
    c = _load_stream(args.input)
    spec = OPERATIONS[args.name]
    if spec.needs_scalar and args.scalar is None:
        print(f"error: operation {args.name!r} needs --scalar", file=sys.stderr)
        return 2
    result = ops.apply_operation(c, args.name, args.scalar)
    if spec.result == "computation":
        print(f"{args.name}: {result:.10g}")
        return 0
    if args.output is None:
        print(f"error: operation {args.name!r} produces a stream; pass -o", file=sys.stderr)
        return 2
    args.output.write_bytes(result.to_bytes())
    print(f"{args.name} -> {args.output} ({result.compressed_nbytes} bytes)")
    return 0


def _cmd_chain(args) -> int:
    import time

    from repro.core.errors import OperationError
    from repro.core.ops.dispatch import CHAIN_REDUCTIONS, normalize_chain

    c = _load_stream(args.input)
    try:
        steps = normalize_chain(args.steps)
    except OperationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ends_in_reduction = bool(steps) and steps[-1][0] in CHAIN_REDUCTIONS
    if not ends_in_reduction and args.output is None:
        print(
            "error: chain produces a stream; pass -o (or end on a reduction)",
            file=sys.stderr,
        )
        return 2
    from repro.parallel.backends import get_backend

    executor = get_backend(args.backend, args.threads) if args.threads > 1 else None
    t0 = time.perf_counter()
    try:
        result = ops.apply_chain(
            c, steps, fused=not args.no_fuse, executor=executor
        )
    except OperationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if executor is not None:
            executor.close()
    elapsed = time.perf_counter() - t0
    pretty = " -> ".join(
        name if scalar is None else f"{name}={scalar:g}" for name, scalar in steps
    )
    if ends_in_reduction:
        print(f"{pretty}: {result:.10g}")
    else:
        args.output.write_bytes(result.to_bytes())
        print(f"{pretty} -> {args.output} ({result.compressed_nbytes} bytes)")
    if args.time:
        mode = "eager" if args.no_fuse else "fused"
        print(f"[{mode} chain: {1e3 * elapsed:.2f} ms]")
    return 0


def _parse_workers(text: str) -> tuple[int, ...]:
    try:
        workers = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad --workers {text!r}; expected e.g. 1,2,4") from None
    if not workers or any(w <= 0 for w in workers):
        raise ValueError("worker counts must be positive")
    return workers


def _bench_cfg(args):
    import dataclasses

    from repro.harness.config import config_from_env

    cfg = config_from_env()
    if getattr(args, "scale", None) is not None:
        cfg = dataclasses.replace(cfg, scale=args.scale)
    if getattr(args, "repeats", None) is not None:
        cfg = dataclasses.replace(cfg, repeats=args.repeats)
    return cfg


def _run_bench(table, args, summarize) -> int:
    """Run ``table`` in a temporary runs dir; ``-o`` gets its ``report.json``.

    ``summarize(result)`` prints the command's summary; the exit code is
    0 only when every cell is ok.
    """
    import dataclasses
    import tempfile

    from repro.harness.experiments import render_report_json, run_experiment

    if getattr(args, "repeats", None) is not None:
        table = dataclasses.replace(table, repeats=args.repeats)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        result = run_experiment(table, _bench_cfg(args), tmp)
    summarize(result)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(render_report_json(result.report), encoding="utf-8")
        print(f"[report -> {args.output}]")
    return 0 if result.all_ok else 1


def _print_report(result) -> None:
    from repro.harness.experiments import render_report_markdown

    print(render_report_markdown(result.report))


def _cmd_bench_bitpack(args) -> int:
    """The bitpack-kernels microbenchmark, executed through the engine."""
    from repro.harness.experiments import get_table

    kwargs: dict = {"size": args.size}
    if args.widths is not None:
        try:
            widths = tuple(int(part) for part in args.widths.split(","))
        except ValueError:
            print(f"error: bad --widths {args.widths!r}", file=sys.stderr)
            return 2
        if not widths or any(w < 0 or w > 64 for w in widths):
            print("error: widths must be in [0, 64]", file=sys.stderr)
            return 2
        kwargs["widths"] = widths
    table = get_table("bitpack-kernels", **kwargs)
    return _run_bench(table, args, _print_report)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.server import ServiceConfig, ServiceServer

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        n_workers=args.threads,
        byte_budget=args.byte_budget,
        max_pending=args.max_pending,
        request_timeout_s=args.timeout,
        batch_window_s=args.window,
        batching=not args.no_batching,
        verify_streams=not args.no_verify,
        debug_delay_s=args.debug_delay_s,
    )

    async def _serve() -> None:
        server = ServiceServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(f"listening on {config.host}:{server.port}", flush=True)
        serve_task = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("draining...", flush=True)
        serve_task.cancel()
        await server.shutdown()
        print("stopped", flush=True)

    asyncio.run(_serve())
    return 0


def _cmd_cluster(args) -> int:
    handlers = {
        "node": _cluster_node,
        "serve": _cluster_serve,
        "status": _cluster_status,
        "bench": _cluster_bench,
    }
    return handlers[args.cluster_command](args)


def _cluster_node(args) -> int:
    import asyncio
    import signal

    from repro.cluster import ClusterNode, NodeConfig

    config = NodeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        n_workers=args.threads,
        node_id=args.node_id,
    )

    async def _serve() -> None:
        node = ClusterNode(config)
        await node.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(f"listening on {config.host}:{node.port}", flush=True)
        serve_task = asyncio.ensure_future(node.serve_forever())
        await stop.wait()
        serve_task.cancel()
        await node.shutdown()

    asyncio.run(_serve())
    return 0


def _cluster_serve(args) -> int:
    import signal
    import subprocess
    import threading

    from repro.cluster import ClusterClient, HeartbeatMonitor, NodeInfo, ShardMap

    procs: list[subprocess.Popen] = []
    try:
        for i in range(args.nodes):
            procs.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "cluster", "node",
                        "--host", args.host, "--port", "0",
                        "--node-id", f"node-{i}",
                        "--threads", str(args.threads),
                    ],
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        infos = []
        for i, proc in enumerate(procs):
            assert proc.stdout is not None
            line = proc.stdout.readline().strip()
            if not line.startswith("listening on "):
                print(f"error: node-{i} failed to start: {line!r}", file=sys.stderr)
                return 1
            port = int(line.rsplit(":", 1)[1])
            infos.append(NodeInfo(f"node-{i}", args.host, port))
        shard_map = ShardMap(
            tuple(infos), replicas=args.replicas, vnodes=args.vnodes
        )
        args.map_file.write_text(shard_map.to_json())
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        with ClusterClient(shard_map) as router:
            router.install_map()
            with HeartbeatMonitor(router):
                print(
                    f"cluster up: {args.nodes} nodes, replicas={args.replicas}, "
                    f"map -> {args.map_file}",
                    flush=True,
                )
                last_epoch = router.epoch
                while not stop.wait(0.5):
                    if router.epoch != last_epoch:
                        last_epoch = router.epoch
                        args.map_file.write_text(router.map.to_json())
                        print(
                            f"rebalanced: epoch {last_epoch}, "
                            f"{len(router.map.nodes)} nodes live",
                            flush=True,
                        )
        print("stopping nodes...", flush=True)
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


def _cluster_status(args) -> int:
    from repro.cluster import ClusterClient, ShardMap

    shard_map = ShardMap.from_json(args.map_file.read_text())
    with ClusterClient(shard_map) as router:
        doc = router.status()
    print(f"epoch {doc['epoch']}  replicas {doc['replicas']}")
    down = 0
    for node_id, info in sorted(doc["nodes"].items()):
        if "error" in info:
            down += 1
            print(f"  {node_id:>10}: DOWN ({info['error']})")
        else:
            print(
                f"  {node_id:>10}: up  epoch {info['epoch']}  "
                f"arrays {info['arrays']}  inflight {info['inflight']}"
            )
    return 1 if down else 0


def _cluster_bench(args) -> int:
    """The ``cluster-scale`` table behind ``cluster bench``."""
    import dataclasses

    from repro.harness.experiments import get_table

    table = get_table(
        "cluster-scale",
        nodes=(args.nodes,),
        replicas=(args.replicas,),
        clients=(args.clients,),
        requests_per_client=args.requests,
        chunks=args.chunks,
        n_elements=args.n_elements,
        eps=args.eps,
    )
    table = dataclasses.replace(
        table, options={**table.options, "n_arrays": args.arrays}
    )

    def summarize(result) -> None:
        m = result.cells[0]["metrics"]
        print(
            f"cluster: {m['throughput_rps']:8.1f} req/s  "
            f"p50 {m['latency_p50_ms']:7.2f} ms  "
            f"p99 {m['latency_p99_ms']:7.2f} ms  "
            f"({m['completed_requests']}/{m['total_requests']} ok, "
            f"{m['identity_failures']} identity failures)"
        )

    return _run_bench(table, args, summarize)


def _cmd_bench_serve(args) -> int:
    """The ``service-batching`` table behind ``bench-serve``."""
    from repro.harness.experiments import get_table

    table = get_table(
        "service-batching",
        dataset=args.dataset,
        clients=args.clients,
        requests_per_client=args.requests,
        eps=args.eps,
        backend=args.backend,
        n_workers=args.threads,
    )

    def summarize(result) -> None:
        m = result.cells[0]["metrics"]
        for label in ("batched", "unbatched"):
            v = m[label]
            print(
                f"{label:>9}: {v['throughput_rps']:8.1f} req/s  "
                f"p50 {v['latency_p50_ms']:7.2f} ms  p99 {v['latency_p99_ms']:7.2f} ms  "
                f"({v['completed_requests']}/{v['total_requests']} ok)"
            )
        print(
            f"speedup (batched/unbatched): "
            f"{m['speedup_batched_vs_unbatched']:.2f}x"
        )
        red = m["reduce_vs_decompress"]
        print(
            f"REDUCE mean: {1e3 * red['compressed_domain_seconds']:.2f} ms "
            f"compressed-domain vs {1e3 * red['fetch_decompress_seconds']:.2f} ms "
            f"fetch+decompress ({red['speedup']:.2f}x)"
        )

    return _run_bench(table, args, summarize)


def _cmd_experiment(args) -> int:
    from repro.harness.experiments import ExperimentIndexError

    handlers = {
        "tables": _experiment_tables,
        "run": _experiment_run,
        "report": _experiment_report,
        "compare": _experiment_compare,
    }
    try:
        return handlers[args.experiment_command](args)
    except ExperimentIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _experiment_tables(args) -> int:
    from repro.harness.experiments import get_table, table_names

    for name in table_names():
        table = get_table(name)
        factors = " x ".join(
            f"{k}[{len(v)}]" for k, v in table.factors.items()
        )
        print(f"{name:18} {table.workload:10} {table.n_cells:3} cell(s)  {factors}")
        print(f"{'':18} {table.description}")
    return 0


def _experiment_run(args) -> int:
    import dataclasses
    import inspect

    from repro.harness.experiments import PREDEFINED_TABLES, get_table, run_experiment

    kwargs = {}
    if args.workers is not None:
        kwargs["workers"] = _parse_workers(args.workers)
    if args.dataset is not None:
        kwargs["dataset"] = args.dataset
    factory = PREDEFINED_TABLES.get(args.table)
    for key in kwargs:
        if factory is not None and key not in inspect.signature(factory).parameters:
            print(f"error: run table {args.table!r} takes no --{key}", file=sys.stderr)
            return 2
    table = get_table(args.table, **kwargs)
    if args.repeats is not None:
        table = dataclasses.replace(table, repeats=args.repeats)
    cfg = _bench_cfg(args)

    index_path = args.index
    if index_path is None:
        index_path = args.runs_dir / "experiments.db"
    elif str(index_path) == "none":
        index_path = None

    progress = None if args.quiet else print
    result = run_experiment(
        table,
        cfg,
        args.runs_dir,
        index_path=index_path,
        resume=args.resume,
        progress=progress,
    )
    print(
        f"run {result.run_id}: {result.executed} executed, "
        f"{result.resumed} resumed, all_ok={result.all_ok}"
    )
    print(f"[artifacts -> {result.run_dir}]")
    return 0 if result.all_ok else 1


def _experiment_report(args) -> int:
    from repro.harness.experiments import (
        open_index,
        render_report_json,
        report_from_index,
    )

    conn = open_index(args.index)
    try:
        report, markdown = report_from_index(conn, args.run)
    finally:
        conn.close()
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        (args.output_dir / "report.json").write_text(render_report_json(report))
        (args.output_dir / "report.md").write_text(markdown)
        print(f"[report.json + report.md -> {args.output_dir}]")
    elif args.json:
        print(render_report_json(report), end="")
    else:
        print(markdown)
    return 0


def _experiment_compare(args) -> int:
    from repro.harness.experiments import (
        compare_runs,
        get_run,
        latest_run_id,
        list_runs,
        open_index,
    )

    conn = open_index(args.index)
    try:
        current = args.current or latest_run_id(conn)
        baseline = args.baseline
        if baseline is None:
            table_name = get_run(conn, current)["table_name"]
            prior = [
                r["run_id"]
                for r in list_runs(conn, table_name)
                if r["run_id"] != current
            ]
            if not prior:
                print(
                    f"error: no baseline run for table {table_name!r} in the "
                    "index (need at least two runs, or pass --baseline)",
                    file=sys.stderr,
                )
                return 2
            baseline = prior[-1]
        result = compare_runs(
            conn,
            baseline,
            current,
            max_regression_pct=args.max_regression_pct,
            gate_timing=args.gate_timing,
        )
    finally:
        conn.close()
    print(result.render())
    return 0 if result.ok else 1


def _render_findings(findings, fmt: str) -> str:
    from repro.analysis.findings import render_json, render_sarif, render_text

    render = {"json": render_json, "sarif": render_sarif, "text": render_text}[fmt]
    return render(findings)


def _changed_files(rev: str) -> list[Path]:
    """``.py`` files changed since ``rev`` (diff vs worktree + untracked).

    Raises ``RuntimeError`` when git is unavailable or ``rev`` does not
    resolve, so the CLI can report it instead of silently linting nothing.
    """
    import subprocess

    def _git(*argv: str, cwd: str | None = None) -> str:
        proc = subprocess.run(
            ["git", *argv], cwd=cwd, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"git {' '.join(argv)} failed: {proc.stderr.strip()}"
            )
        return proc.stdout

    top = _git("rev-parse", "--show-toplevel").strip()
    names = _git("diff", "--name-only", "-z", rev, "--", cwd=top)
    names += _git("ls-files", "--others", "--exclude-standard", "-z", cwd=top)
    out = []
    for name in sorted({n for n in names.split("\0") if n}):
        path = Path(top) / name
        if path.suffix == ".py" and path.exists():
            out.append(path)
    return out


def _cmd_lint(args) -> int:
    from repro.analysis import analyze_paths
    from repro.analysis.findings import Report

    select = args.select.split(",") if args.select else None
    paths = args.paths or None
    changed: list[Path] | None = None
    if args.changed is not None:
        try:
            changed = _changed_files(args.changed)
        except RuntimeError as exc:
            print(f"error: --changed: {exc}", file=sys.stderr)
            return 2
    findings = analyze_paths(paths, select=select, changed=changed)
    text = _render_findings(findings, args.fmt)
    report = Report(findings)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"[{len(findings)} finding(s) -> {args.output}]")
    else:
        print(text)
    return report.exit_code


def _cmd_verify_stream(args) -> int:
    from repro.analysis import verify_file
    from repro.analysis.findings import Report

    fmt = None if args.stream_format == "auto" else args.stream_format
    findings = []
    for path in args.inputs:
        # Distinct exit codes so callers can tell a *malformed* stream
        # (ValueError: bad arguments/format for this verifier, rc 2) from
        # an *unreadable* one (OSError: missing file, permissions, rc 3);
        # rc 1 stays "verified, findings present".
        try:
            findings.extend(verify_file(path, fmt=fmt, n_elements=args.n_elements))
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 3
    print(_render_findings(findings, args.fmt))
    return Report(findings).exit_code


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "info": _cmd_info,
    "stats": _cmd_stats,
    "op": _cmd_op,
    "chain": _cmd_chain,
    "bench-bitpack": _cmd_bench_bitpack,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "bench-serve": _cmd_bench_serve,
    "experiment": _cmd_experiment,
    "lint": _cmd_lint,
    "verify-stream": _cmd_verify_stream,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
