"""Traced run: wrap each layer boundary, derive the per-layer metrics.

The wrappers are installed from the benchmark's own files around public
functions and methods of ``repro`` (the program carries no span seam
yet) and are removed afterwards, whatever happens.  Each wrapper records
a span — name, duration, and the time its wrapped children took — on a
per-thread stack, so a span's *self* time is its duration minus its
children's, also across the cluster nodes' executor threads.

A boundary whose module attribute is missing is not fatal: it is listed
in ``unwrapped`` (and counted by ``trace.unwrapped_boundaries``), and
the metrics derived from it read 0.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Thread-name prefix of the service kernel pool (node-side compute).
NODE_THREAD_PREFIX = "repro-service"

_REDUCTIONS = ("mean", "variance", "std", "minimum", "maximum")


def _compress_mb(args: tuple, result: Any) -> float:
    return float(getattr(args[1], "nbytes", 0)) / 1e6


def _decompress_mb(args: tuple, result: Any) -> float:
    return float(getattr(result, "nbytes", 0)) / 1e6


def _cache_outcome(args: tuple) -> Callable[[], str]:
    cache = args[0]
    hits_before = cache.stats.hits
    return lambda: "cache.hit" if cache.stats.hits > hits_before else "cache.miss"


@dataclass(frozen=True)
class Boundary:
    """One wrapped attribute: ``module[.owner].attr`` recorded as ``span``."""

    module: str
    owner: str | None
    attr: str
    span: str
    #: (args, result) -> MB processed, accumulated on the span.
    mb: Callable[[tuple, Any], float] | None = None
    #: args -> callable naming the span once the call returned.
    classify: Callable[[tuple], Callable[[], str]] | None = None
    #: extra span name recording the duration when run on a node thread.
    node_alias: str | None = None

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}:{owner}{self.attr}"


BOUNDARIES: tuple[Boundary, ...] = (
    # codec, compress side (call sites in the compressor module)
    Boundary("repro.core.compressor", "SZOps", "compress", "compress", mb=_compress_mb),
    Boundary("repro.core.compressor", None, "quantize", "qz"),
    Boundary("repro.core.compressor", None, "lorenzo_forward", "lz"),
    Boundary("repro.core.compressor", None, "encode_block_sections", "bf"),
    # codec, decompress side
    Boundary("repro.core.compressor", "SZOps", "decompress", "decompress", mb=_decompress_mb),
    Boundary("repro.core.compressor", None, "decode_block_sections", "bf_inv"),
    Boundary("repro.core.compressor", None, "lorenzo_inverse", "lz_inv"),
    Boundary("repro.core.compressor", None, "dequantize", "dequantize"),
    Boundary("repro.core.format", "SZOpsCompressed", "validate_structure", "validate"),
    # runtime + compressed-domain ops
    Boundary("repro.runtime.cache", "DecodedBlockCache", "get_blocks", "cache", classify=_cache_outcome),
    Boundary("repro.core.format", "SZOpsCompressed", "content_fingerprint", "fingerprint"),
    Boundary("repro.runtime.cache", None, "decode_stored_blocks", "decode"),
    *(Boundary("repro.core.ops", None, name, "reduce") for name in _REDUCTIONS),
    *(Boundary("repro.runtime.lazy", "LazyStream", name, "reduce") for name in _REDUCTIONS),
    Boundary("repro.runtime.lazy", "LazyStream", "quantized_moments", "reduce", node_alias="node.preduce"),
    Boundary("repro.runtime.lazy", None, "rebuild_stored", "reencode"),
    Boundary("repro.runtime.lazy", "LazyStream", "materialize", "materialize", node_alias="node.op"),
    # cluster router and its shard round trips
    Boundary("repro.cluster.router", "ClusterClient", "reduce", "router.reduce"),
    *(Boundary("repro.service.client", "ServiceClient", name, f"rtt.{name}") for name in ("preduce", "op", "get", "put")),
    Boundary("repro.cluster.router", None, "combine_moments", "combine"),
    Boundary("repro.cluster.router", None, "finish_reduction", "combine"),
    Boundary("repro.cluster.router", None, "merge_containers", "merge"),
    # service store
    Boundary("repro.service.store", "CompressedArrayStore", "put", "store.put"),
)


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    mb: float = 0.0
    #: parent span name -> total seconds spent under that parent.
    by_parent: dict[str | None, float] = field(default_factory=lambda: defaultdict(float))
    #: calls with no wrapped span of the same name above them.
    top_calls: int = 0

    def mean_ms(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0


class _Frame:
    __slots__ = ("span", "child_s")

    def __init__(self, span: str) -> None:
        self.span = span
        self.child_s = 0.0


class Tracer:
    """Span recorder plus the install/restore bookkeeping of the wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, SpanStat] = defaultdict(SpanStat)
        self.unwrapped: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ spans

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn: Callable[..., Any], b: Boundary) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1].span if stack else None
            ancestors = {f.span for f in stack}
            outcome = b.classify(args) if b.classify is not None else None
            frame = _Frame(b.span)
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                name = outcome() if outcome is not None else b.span
                mb = b.mb(args, result) if b.mb is not None else 0.0
                on_node = threading.current_thread().name.startswith(NODE_THREAD_PREFIX)
                with self._lock:
                    stat = self.spans[name]
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - frame.child_s
                    stat.mb += mb
                    stat.by_parent[parent] += dt
                    if name not in ancestors:
                        stat.top_calls += 1
                    if b.node_alias and on_node:
                        alias = self.spans[b.node_alias]
                        alias.calls += 1
                        alias.total_s += dt

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------ install

    def install(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        for b in boundaries:
            try:
                module = importlib.import_module(b.module)
                owner = getattr(module, b.owner) if b.owner else module
                if b.owner is not None and b.attr not in vars(owner):
                    raise AttributeError(b.attr)
                original = getattr(owner, b.attr) if b.owner is None else vars(owner)[b.attr]
            except (ImportError, AttributeError):
                self.unwrapped.append(b.label)
                continue
            self._patches.append((owner, b.attr, original))
            setattr(owner, b.attr, self._wrapper(original, b))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ derived

    def stat(self, name: str) -> SpanStat:
        with self._lock:
            return self.spans.get(name) or SpanStat()


def per_layer_metrics(
    tracer: Tracer, counts: dict[str, float], overhead: tuple[float, float]
) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and exact counters.

    ``counts`` carries the exact figures the workload measured itself
    (cache-stat deltas, stream planes, router and STATS counters, the op
    count); ``overhead`` is (traced wall s, untraced wall s) of the same
    op schedule.
    """
    s = tracer.stat
    comp, decomp = s("compress"), s("decompress")

    def per_mb(seconds: float, mb: float) -> float:
        return 1e3 * seconds / mb if mb > 0 else 0.0

    stage_s = s("qz").total_s + s("lz").total_s + s("bf").total_s
    validate_s = s("validate").by_parent.get("decompress", 0.0)
    inv_s = s("bf_inv").total_s + s("lz_inv").total_s + s("dequantize").total_s
    hits, misses = counts.get("cache_hits", 0.0), counts.get("cache_misses", 0.0)
    reduce = s("reduce")
    router_reduce = s("router.reduce")
    rtt = {name: s(f"rtt.{name}") for name in ("preduce", "op", "get", "put")}
    node_pre, node_op = s("node.preduce"), s("node.op")
    ops = counts.get("ops", 0.0)
    traced_s, untraced_s = overhead

    values: dict[str, float] = {
        "core.quantize.qz_ms_per_mb": per_mb(s("qz").total_s, comp.mb),
        "core.lorenzo.lz_ms_per_mb": per_mb(s("lz").total_s, comp.mb),
        "core.encode.bf_ms_per_mb": per_mb(s("bf").total_s, comp.mb),
        "core.compressor.compress_self_ms_per_mb": per_mb(comp.total_s - stage_s, comp.mb),
        "core.encode.bf_inv_ms_per_mb": per_mb(s("bf_inv").total_s, decomp.mb),
        "core.lorenzo.lz_inv_ms_per_mb": per_mb(s("lz_inv").total_s, decomp.mb),
        "core.format.validate_ms_per_mb": per_mb(validate_s, decomp.mb),
        "core.compressor.decompress_self_ms_per_mb": per_mb(
            decomp.total_s - inv_s - validate_s, decomp.mb
        ),
        "core.quantize.dequantize_ms_per_mb": per_mb(s("dequantize").total_s, decomp.mb),
        "core.encode.constant_block_frac": counts.get("constant_block_frac", 0.0),
        "core.encode.mean_width_bits": counts.get("mean_width_bits", 0.0),
        "runtime.cache.hits": hits,
        "runtime.cache.misses": misses,
        "runtime.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.cache.evictions": counts.get("cache_evictions", 0.0),
        "runtime.cache.lookups_per_op": (hits + misses) / ops if ops else 0.0,
        "runtime.cache.hit_ms": s("cache.hit").mean_ms(),
        "runtime.cache.miss_ms": s("cache.miss").mean_ms(),
        "core.format.fingerprint_ms": s("fingerprint").mean_ms(),
        "core.ops.decode_ms": s("decode").mean_ms(),
        "core.ops.reduce_self_ms": (
            1e3 * reduce.self_s / reduce.top_calls if reduce.top_calls else 0.0
        ),
        "core.ops.reencode_ms": s("reencode").mean_ms(),
        "runtime.lazy.materialize_self_ms": (
            1e3 * s("materialize").self_s / s("materialize").calls
            if s("materialize").calls
            else 0.0
        ),
        "cluster.router.fanout_per_reduce": (
            rtt["preduce"].calls / router_reduce.calls if router_reduce.calls else 0.0
        ),
        "cluster.router.retries": counts.get("router_retries", 0.0),
        **{f"cluster.router.shard_rtt_ms.{k}": v.mean_ms() for k, v in rtt.items()},
        "cluster.router.combine_ms": (
            1e3 * s("combine").total_s / router_reduce.calls if router_reduce.calls else 0.0
        ),
        "cluster.chunking.merge_ms": s("merge").mean_ms(),
        "service.node.compute_ms.preduce": node_pre.mean_ms(),
        "service.node.compute_ms.op": node_op.mean_ms(),
        "service.overhead_ms.preduce": (
            rtt["preduce"].mean_ms() - node_pre.mean_ms() if node_pre.calls else 0.0
        ),
        "service.overhead_ms.op": (
            rtt["op"].mean_ms() - node_op.mean_ms() if node_op.calls else 0.0
        ),
        "service.store.put_ms": s("store.put").mean_ms(),
        "service.stats.batches": counts.get("stats_batches", 0.0),
        "service.stats.dedup_hits": counts.get("stats_dedup_hits", 0.0),
        "service.stats.busy": counts.get("stats_busy", 0.0),
        "service.stats.timeouts": counts.get("stats_timeouts", 0.0),
        "service.stats.errors": counts.get("stats_errors", 0.0),
        "service.store.evictions": counts.get("store_evictions", 0.0),
        "trace.overhead_pct": (
            100.0 * (traced_s - untraced_s) / untraced_s if untraced_s > 0 else 0.0
        ),
        "trace.overhead_ms_per_op": 1e3 * (traced_s - untraced_s) / ops if ops else 0.0,
        "trace.unwrapped_boundaries": float(len(tracer.unwrapped)),
    }
    return values


def stream_planes(containers: list[Any]) -> dict[str, float]:
    """Exact width-plane descriptors of a corpus of containers."""
    blocks = constant = width_sum = 0
    for c in containers:
        widths = c.widths
        blocks += int(widths.size)
        constant += int((widths == 0).sum())
        width_sum += int(widths.sum(dtype="int64"))
    return {
        "constant_block_frac": constant / blocks if blocks else 0.0,
        "mean_width_bits": width_sum / blocks if blocks else 0.0,
    }


def traced_run(
    run_pass: Callable[[], tuple[Any, float]],
    snapshot: Callable[[], dict[str, float]],
) -> tuple[Tracer, list[Any], dict[str, float], tuple[float, float]]:
    """Run the op schedule untraced, traced, and untraced again.

    Returns the tracer, the three passes' ledgers, the deltas of
    ``snapshot`` (exact counters) across the traced pass, and (traced s,
    untraced s); the untraced figure is the faster of the two untraced
    passes, so a cold first pass does not read as negative overhead.
    """
    first, first_s = run_pass()
    before = snapshot()
    tracer = Tracer()
    with tracer.installed():
        traced, traced_s = run_pass()
    after = snapshot()
    last, last_s = run_pass()
    deltas = {key: after[key] - before.get(key, 0.0) for key in after}
    return tracer, [first, traced, last], deltas, (traced_s, min(first_s, last_s))


def traced_report(
    tracer: Tracer,
    counts: dict[str, float],
    walls: tuple[float, float],
    ledgers: list[Any],
) -> Any:
    """The traced run's report: every per-layer metric, as measured."""
    from szbench.common import Report

    return Report.build(
        per_layer_metrics(tracer, counts, walls),
        "per_layer",
        ledgers,
        {"unwrapped": tracer.unwrapped or "none"},
    )


def cache_snapshot() -> dict[str, float]:
    """Decoded-block cache counters of the process-wide cache."""
    from repro.runtime import cache_stats

    stats = cache_stats()
    if stats is None:
        return {"cache_hits": 0.0, "cache_misses": 0.0, "cache_evictions": 0.0}
    return {
        "cache_hits": float(stats.hits),
        "cache_misses": float(stats.misses),
        "cache_evictions": float(stats.evictions),
    }
