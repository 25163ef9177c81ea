"""Experiment drivers that regenerate every table and figure of the paper.

Each ``run_*`` function measures one artifact (see DESIGN.md's experiment
index) and returns an :class:`ExperimentResult` whose rows mirror the
paper's layout.  The benchmark modules under ``benchmarks/`` call these
drivers and persist their renderings; ``repro.harness.records`` assembles
EXPERIMENTS.md from the same objects.

Workload preparation is shared: fields come from the synthetic SDRBench
stand-ins at the configured scale, and every codec runs with the paper's
block geometry (64-element blocks, Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines import make_codec
from repro.core.compressor import SZOps
from repro.core.format import SZOpsCompressed
from repro.core.ops.dispatch import OPERATIONS, operation_names
from repro.core.validate import bound_slack
from repro.datasets import generate_fields, get_dataset
from repro.harness.config import BenchConfig
from repro.metrics import Timer, mb_per_s, gb_per_s, mean_ratio
from repro.parallel import kernels
from repro.parallel.backends import ExecutionBackend, available_backends, get_backend
from repro.workflow import run_compressed, run_traditional

__all__ = [
    "ExperimentResult",
    "OpMeasurement",
    "prepare_fields",
    "compress_fields",
    "measure_ops_matrix",
    "run_table4",
    "run_figure5",
    "run_figure6",
    "run_table6",
    "run_table7",
    "run_ablation_format",
    "run_ablation_constant_blocks",
    "run_runtime_fusion",
    "run_parallel_backends",
    "largest_dataset",
    "DEFAULT_SCALAR",
]

#: Scalar operand used for scalar add/sub/mul across the evaluation
#: (mirrors the paper's Section V examples).
DEFAULT_SCALAR = 3.14

#: The paper's block geometry (Table VI implies 64-element blocks).
BLOCK_SIZE = 64


@dataclass
class ExperimentResult:
    """One regenerated table or figure, ready to render."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def prepare_fields(cfg: BenchConfig, dataset: str) -> dict[str, np.ndarray]:
    """Generate the configured subset of a dataset's fields."""
    spec = get_dataset(dataset)
    names = cfg.limit_fields([f.name for f in spec.fields])
    return generate_fields(dataset, scale=cfg.scale, seed=cfg.seed, fields=names)


def compress_fields(
    fields: dict[str, np.ndarray],
    eps: float,
    backend: str | ExecutionBackend = "serial",
    n_workers: int = 1,
    block_size: int = BLOCK_SIZE,
    mode: str = "abs",
) -> dict[str, SZOpsCompressed]:
    """Compress a timestep's worth of fields through an execution backend.

    This is the multi-field in-situ shape: one whole field per work item,
    distributed field-granular across the backend's workers (the process
    backend ships fields through shared memory and returns only the
    compressed streams over the pickle channel; its per-worker codecs are
    built lazily and reused across calls).  Streams are bit-identical to
    serial per-field compression on every backend.
    """
    chunks = [
        {
            "field": name,
            "eps": float(eps),
            "mode": mode,
            "block_size": int(block_size),
            "lo": 0,
            "hi": int(arr.size),
        }
        for name, arr in fields.items()
    ]
    owns = isinstance(backend, str)
    be = get_backend(backend, n_workers)
    try:
        run = be.run_kernel(kernels.compress_field_chunk, dict(fields), chunks)
    finally:
        if owns:
            be.close()
    return {
        chunk["field"]: SZOpsCompressed.from_bytes(blob)
        for chunk, blob in zip(chunks, run.results)
    }


# --------------------------------------------------------------------------
# Table IV — traditional-workflow throughput of the baseline codecs
# --------------------------------------------------------------------------


def run_table4(cfg: BenchConfig) -> ExperimentResult:
    """Throughput (MB/s) of every operation via the traditional workflow.

    Matches the paper's setup: Hurricane dataset, absolute eps 1e-4, the
    operation executed on decompressed data with recompression for
    compression-as-output operations (Section VI-B1's cost definition).
    """
    fields = prepare_fields(cfg, "Hurricane")
    codec_names = ["SZp", "SZ2", "SZ3", "SZx", "ZFP"]
    codecs = {name: make_codec(name) for name in codec_names}

    blobs = {
        name: {f: codecs[name].compress(arr, cfg.eps) for f, arr in fields.items()}
        for name in codec_names
    }
    total_bytes = sum(arr.nbytes for arr in fields.values())

    rows = []
    for op in operation_names():
        scalar = DEFAULT_SCALAR if OPERATIONS[op].needs_scalar else None
        row: list = [op]
        for name in codec_names:
            best = float("inf")
            for _ in range(cfg.repeats):
                seconds = 0.0
                for fname in fields:
                    res = run_traditional(codecs[name], blobs[name][fname], op, scalar)
                    seconds += res.timing.total
                best = min(best, seconds)
            row.append(mb_per_s(total_bytes, best))
        rows.append(row)

    return ExperimentResult(
        exp_id="table4",
        title=(
            "Table IV: throughput (MB/s) for operations on Hurricane via the "
            "traditional workflow (decompress + operate [+ recompress]), eps=1e-4"
        ),
        headers=["Operation", *codec_names],
        rows=rows,
        notes=[
            f"{len(fields)} fields, {total_bytes / 1e6:.1f} MB total, "
            f"scale={cfg.scale}",
            "Expected shape (paper): SZp fastest, ~1.5x over SZx; SZ2/SZ3/ZFP "
            "well behind.",
        ],
    )


# --------------------------------------------------------------------------
# Figures 5 & 6 — SZOps kernels vs the traditional SZp workflow
# --------------------------------------------------------------------------


@dataclass
class OpMeasurement:
    """One (dataset, operation) cell shared by Figures 5 and 6."""

    dataset: str
    op_name: str
    bytes: int
    szp_decompress_s: float
    szp_operate_s: float
    szp_compress_s: float
    szops_kernel_s: float

    @property
    def szp_total_s(self) -> float:
        return self.szp_decompress_s + self.szp_operate_s + self.szp_compress_s

    @property
    def reduction_pct(self) -> float:
        if self.szp_total_s <= 0:
            return 0.0
        return 100.0 * (1.0 - self.szops_kernel_s / self.szp_total_s)

    @property
    def speedup(self) -> float:
        if self.szops_kernel_s <= 0:
            return float("inf")
        return self.szp_total_s / self.szops_kernel_s


def measure_ops_matrix(cfg: BenchConfig) -> list[OpMeasurement]:
    """Measure every (dataset, operation) for SZp-traditional vs SZOps."""
    szp = make_codec("SZp", block_size=BLOCK_SIZE)
    szops = SZOps(block_size=BLOCK_SIZE)
    out: list[OpMeasurement] = []
    for dataset in cfg.datasets:
        fields = prepare_fields(cfg, dataset)
        total_bytes = sum(arr.nbytes for arr in fields.values())
        szp_blobs = {f: szp.compress(arr, cfg.eps) for f, arr in fields.items()}
        szops_blobs = {f: szops.compress(arr, cfg.eps) for f, arr in fields.items()}
        for op in operation_names():
            scalar = DEFAULT_SCALAR if OPERATIONS[op].needs_scalar else None
            best = None
            for _ in range(cfg.repeats):
                dec = opr = cmp_ = kern = 0.0
                for fname in fields:
                    tres = run_traditional(szp, szp_blobs[fname], op, scalar)
                    dec += tres.timing.decompress
                    opr += tres.timing.operate
                    cmp_ += tres.timing.compress
                    cres = run_compressed(szops_blobs[fname], op, scalar)
                    kern += cres.kernel_seconds
                cand = (dec, opr, cmp_, kern)
                if best is None or sum(cand) < sum(best):
                    best = cand
            out.append(
                OpMeasurement(
                    dataset=dataset,
                    op_name=op,
                    bytes=total_bytes,
                    szp_decompress_s=best[0],
                    szp_operate_s=best[1],
                    szp_compress_s=best[2],
                    szops_kernel_s=best[3],
                )
            )
    return out


def run_figure5(cfg: BenchConfig, matrix: list[OpMeasurement] | None = None) -> ExperimentResult:
    """Time-cost breakdown: SZp decompress/operate/compress vs SZOps total."""
    matrix = measure_ops_matrix(cfg) if matrix is None else matrix
    rows = [
        [
            m.dataset,
            m.op_name,
            m.szp_decompress_s,
            m.szp_operate_s,
            m.szp_compress_s,
            m.szp_total_s,
            m.szops_kernel_s,
            m.reduction_pct,
        ]
        for m in matrix
    ]
    return ExperimentResult(
        exp_id="figure5",
        title=(
            "Figure 5: time cost (s) of SZp traditional workflow stages vs the "
            "SZOps kernel, eps=1e-4"
        ),
        headers=[
            "Dataset",
            "Operation",
            "SZp decompress",
            "SZp operate",
            "SZp compress",
            "SZp total",
            "SZOps total",
            "reduction %",
        ],
        rows=rows,
        notes=[
            "Paper shape: SZOps time below SZp for every operation; largest "
            "reductions for negation / scalar add / scalar sub (fully "
            "compressed space)."
        ],
        extras={"matrix": matrix},
    )


def run_figure6(cfg: BenchConfig, matrix: list[OpMeasurement] | None = None) -> ExperimentResult:
    """Kernel throughput of SZOps vs end-to-end throughput of SZp."""
    matrix = measure_ops_matrix(cfg) if matrix is None else matrix
    rows = [
        [
            m.dataset,
            m.op_name,
            gb_per_s(m.bytes, m.szops_kernel_s),
            gb_per_s(m.bytes, m.szp_total_s),
            m.speedup,
        ]
        for m in matrix
    ]
    return ExperimentResult(
        exp_id="figure6",
        title=(
            "Figure 6: SZOps kernel throughput vs SZp end-to-end throughput "
            "(GB/s), eps=1e-4; rightmost column is the per-op speedup ratio "
            "printed above each bar in the paper"
        ),
        headers=["Dataset", "Operation", "SZOps GB/s", "SZp GB/s", "speedup x"],
        rows=rows,
        notes=[
            "Paper shape: SZOps above SZp everywhere (2x-200x); reductions "
            "are the slowest SZOps operations."
        ],
        extras={"matrix": matrix},
    )


# --------------------------------------------------------------------------
# Table VI — constant blocks per dataset
# --------------------------------------------------------------------------


def run_table6(cfg: BenchConfig, eps: float = 1e-2) -> ExperimentResult:
    """Constant / total block counts at the Table VI error bound.

    The paper states eps = 1e-2; on the synthetic stand-ins we interpret it
    as value-range-relative (the absolute reading degenerates for the
    small-amplitude fields — recorded in EXPERIMENTS.md).
    """
    szops = SZOps(block_size=BLOCK_SIZE)
    # Block statistics are cheap (SZOps compression only), so this table
    # always counts every field regardless of the max_fields cap — the
    # constant fraction is a per-dataset property, not a per-subset one.
    full_cfg = BenchConfig(
        eps=cfg.eps, scale=cfg.scale, max_fields=0, repeats=cfg.repeats,
        datasets=cfg.datasets, results_dir=cfg.results_dir, seed=cfg.seed,
    )
    rows = []
    for dataset in cfg.datasets:
        fields = prepare_fields(full_cfg, dataset)
        const = total = 0
        for arr in fields.values():
            c = szops.compress(arr, eps, mode="rel")
            const += c.n_constant_blocks
            total += c.n_blocks
        rows.append([dataset, const, total, 100.0 * const / max(total, 1)])
    return ExperimentResult(
        exp_id="table6",
        title="Table VI: constant blocks vs total blocks per dataset (eps=1e-2, value-range relative)",
        headers=["Dataset", "Const. blocks", "Total blocks", "% (Const./Total)"],
        rows=rows,
        notes=[
            "Paper: Hurricane 13%, CESM-ATM 1.5%, SCALE-LETKF 4%, Miranda 14%.",
            "Known deviation: synthetic SCALE-LETKF hydrometeors are exactly "
            "zero outside cloud blobs, so its constant fraction is higher "
            "than the paper's 4% (real fields carry denormal-scale noise).",
        ],
    )


# --------------------------------------------------------------------------
# Table VII — compression ratios
# --------------------------------------------------------------------------


def run_table7(cfg: BenchConfig) -> ExperimentResult:
    """Average compression ratios per dataset and codec at eps 1e-4."""
    codec_names = ["SZp", "SZ2", "SZ3", "SZx", "ZFP"]
    codecs = {name: make_codec(name) for name in codec_names}
    szops = SZOps(block_size=BLOCK_SIZE)
    rows = []
    for dataset in cfg.datasets:
        fields = prepare_fields(cfg, dataset)
        ratios: dict[str, list[float]] = {n: [] for n in ["SZOps", *codec_names]}
        for arr in fields.values():
            ratios["SZOps"].append(szops.compress(arr, cfg.eps).compression_ratio)
            for name in codec_names:
                ratios[name].append(
                    codecs[name].compress(arr, cfg.eps).compression_ratio
                )
        rows.append([dataset, *(mean_ratio(ratios[n]) for n in ["SZOps", *codec_names])])
    return ExperimentResult(
        exp_id="table7",
        title="Table VII: average compression ratios (eps=1e-4, absolute)",
        headers=["Dataset", "SZOps", "SZp", "SZ (SZ2)", "SZ3", "SZx", "ZFP"],
        rows=rows,
        notes=[
            "Aggregation: arithmetic mean of per-field ratios.",
            "Paper shape: SZOps > SZp on every dataset; SZ/SZ3 far above both; "
            "SZx/ZFP between.",
        ],
    )


# --------------------------------------------------------------------------
# Ablations backing the paper's Section VI-B claims
# --------------------------------------------------------------------------


def run_ablation_format(cfg: BenchConfig) -> ExperimentResult:
    """Section VI-B3: which SZp format overhead costs how much ratio.

    Toggles each SZp stream overhead off one at a time; with all three off
    the stream is SZOps-shaped and the ratio should approach SZOps's.
    """
    fields = prepare_fields(cfg, "Hurricane")
    variants = [
        ("SZp (faithful format)", dict()),
        ("- byte-length plane", dict(store_block_lengths=False)),
        ("- full sign bitmap", dict(full_sign_bitmap=False)),
        ("- word alignment", dict(word_align_payload=False)),
        (
            "all three off (SZOps-shaped)",
            dict(
                store_block_lengths=False,
                full_sign_bitmap=False,
                word_align_payload=False,
            ),
        ),
    ]
    rows = []
    for label, kwargs in variants:
        codec = make_codec("SZp", block_size=BLOCK_SIZE, **kwargs)
        ratios = [codec.compress(arr, cfg.eps).compression_ratio for arr in fields.values()]
        rows.append([label, mean_ratio(ratios)])
    szops = SZOps(block_size=BLOCK_SIZE)
    rows.append(
        [
            "SZOps container",
            mean_ratio(
                [szops.compress(arr, cfg.eps).compression_ratio for arr in fields.values()]
            ),
        ]
    )
    return ExperimentResult(
        exp_id="ablation_format",
        title="Ablation: SZp stream-format overheads vs compression ratio (Hurricane, eps=1e-4)",
        headers=["Variant", "mean ratio"],
        rows=rows,
        notes=[
            "Backs Section VI-B3: removing the per-block byte-length limits "
            "and related overheads recovers the SZOps ratio."
        ],
    )


# --------------------------------------------------------------------------
# Runtime fusion — fused op chain vs eager ops (repro.runtime)
# --------------------------------------------------------------------------


def largest_dataset(cfg: BenchConfig) -> str:
    """The configured dataset with the most elements per field."""
    return max(
        cfg.datasets,
        key=lambda name: int(np.prod(get_dataset(name).shape_at(cfg.scale))),
    )


def run_runtime_fusion(
    cfg: BenchConfig, scalar: float = 0.1, min_repeats: int = 3
) -> ExperimentResult:
    """Benchmark the fused 3-op chain (negate → ×scalar → mean) vs eager ops.

    Three variants on the largest synthetic dataset's first field:

    * **eager** — three ``apply_operation`` calls with the decoded-block
      cache disabled (the pre-runtime behavior: every partial op decodes);
    * **eager+cache** — the same three calls with the cache on (the decode
      inside ``scalar_multiply`` and ``mean`` hit when streams repeat);
    * **fused** — one ``apply_chain`` through :class:`LazyStream`: a single
      cold decode, pending transform folded into the reduction, no encode.

    The fused and eager results must be identical (asserted into the
    ``identical`` extra).  ``extras["bench"]`` carries the JSON payload that
    ``BENCH_runtime.json`` persists.
    """
    from repro.core.ops.dispatch import apply_chain
    from repro.runtime import cache_disabled, clear_cache

    dataset = largest_dataset(cfg)
    spec = get_dataset(dataset)
    fname = spec.fields[0].name
    arr = generate_fields(dataset, scale=cfg.scale, seed=cfg.seed, fields=[fname])[fname]
    szops = SZOps(block_size=BLOCK_SIZE)
    c = szops.compress(arr, cfg.eps)
    chain = [("negation", None), ("scalar_multiply", scalar), ("mean", None)]
    reps = max(cfg.repeats, min_repeats)

    def best(
        fn: Callable[[], float], prepare: Callable[[], object] | None = None
    ) -> tuple[float, float]:
        best_s, value = float("inf"), float("nan")
        for _ in range(reps):
            if prepare is not None:
                prepare()
            with Timer() as t:
                value = fn()
            best_s = min(best_s, t.seconds)
        return best_s, value

    with cache_disabled():
        eager_s, eager_value = best(lambda: apply_chain(c, chain, fused=False))
        # Per-op breakdown of the eager chain (Figure 5 style).
        breakdown = {}
        stream = c
        for name, s in chain:
            with Timer() as t:
                out = apply_chain(stream, [(name, s)], fused=False)
            breakdown[name] = t.seconds
            stream = out if not isinstance(out, float) else stream
    cached_s, cached_value = best(
        lambda: apply_chain(c, chain, fused=False), prepare=clear_cache
    )
    fused_s, fused_value = best(
        lambda: apply_chain(c, chain, fused=True), prepare=clear_cache
    )
    warm_s, warm_value = best(lambda: apply_chain(c, chain, fused=True))

    identical = eager_value == fused_value == cached_value == warm_value
    speedup = eager_s / fused_s if fused_s > 0 else float("inf")
    rows = [
        ["eager (no cache)", 1e3 * eager_s, 1.0, repr(eager_value)],
        ["eager + decoded-block cache", 1e3 * cached_s, eager_s / cached_s, repr(cached_value)],
        ["fused (cold cache)", 1e3 * fused_s, speedup, repr(fused_value)],
        ["fused (warm cache)", 1e3 * warm_s, eager_s / warm_s, repr(warm_value)],
    ]
    bench = {
        "experiment": "runtime_fusion",
        "chain": [name if s is None else f"{name}={s}" for name, s in chain],
        "dataset": dataset,
        "field": fname,
        "shape": list(arr.shape),
        "n_elements": int(arr.size),
        "eps": cfg.eps,
        "block_size": BLOCK_SIZE,
        "repeats": reps,
        "eager_seconds": eager_s,
        "eager_breakdown_seconds": breakdown,
        "eager_cached_seconds": cached_s,
        "fused_seconds": fused_s,
        "fused_warm_seconds": warm_s,
        "speedup_fused_vs_eager": speedup,
        "speedup_warm_vs_eager": eager_s / warm_s if warm_s > 0 else float("inf"),
        "result_mean": eager_value,
        "identical_results": bool(identical),
    }
    return ExperimentResult(
        exp_id="runtime_fusion",
        title=(
            f"Runtime fusion: negate → ×{scalar:g} → mean on {dataset}/{fname} "
            f"({arr.size} elements, eps={cfg.eps:g})"
        ),
        headers=["variant", "best of reps (ms)", "speedup vs eager", "mean"],
        rows=rows,
        notes=[
            "eager = three apply_operation calls, decoded-block cache off;",
            "fused = one LazyStream chain: one decode, no encode, transform "
            "folded into the reduction;",
            f"identical results across all variants: {identical}.",
        ],
        extras={"bench": bench},
    )


# --------------------------------------------------------------------------
# Parallel backends — serial vs threads vs processes on the chunked hot paths
# --------------------------------------------------------------------------


def run_parallel_backends(
    cfg: BenchConfig,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    dataset: str = "Miranda",
    min_repeats: int = 3,
) -> ExperimentResult:
    """Benchmark the execution backends on compression and reductions.

    For every backend × worker count on the synthetic Miranda density
    field: compress (with the QZ/LZ/BF stage split), decompress, and the
    backend-routed mean/variance reductions — best of ``repeats``.  Streams
    and reduction values are asserted identical to the serial baseline
    (bit-identity is the contract, not a tolerance), and the verdicts land
    in ``extras["bench"]`` for ``BENCH_parallel.json``.
    """
    import os

    spec = get_dataset(dataset)
    fname = spec.fields[0].name
    arr = generate_fields(dataset, scale=cfg.scale, seed=cfg.seed, fields=[fname])[fname]
    reps = max(cfg.repeats, min_repeats)
    cpus = os.cpu_count() or 1

    baseline = SZOps(block_size=BLOCK_SIZE, n_threads=1, backend="serial")
    ref_stream = baseline.compress(arr, cfg.eps).to_bytes()

    from repro.runtime.reduce import parallel_mean, parallel_variance

    rows: list[list] = []
    cells: list[dict] = []
    identical = True
    serial_compress: dict[int, float] = {}
    ref_reduce: dict[int, tuple[float, float]] = {}
    for backend_name in available_backends():
        for nw in workers:
            codec = SZOps(block_size=BLOCK_SIZE, n_threads=nw, backend=backend_name)
            try:
                best_c = float("inf")
                stages = {"quantize_s": 0.0, "lorenzo_s": 0.0, "encode_s": 0.0}
                stream = None
                for _ in range(reps):
                    timings: dict[str, float] = {}
                    with Timer() as t:
                        c = codec.compress(arr, cfg.eps, timings=timings)
                    if t.seconds < best_c:
                        best_c, stages, stream = t.seconds, timings, c
                best_d = float("inf")
                for _ in range(reps):
                    with Timer() as t:
                        out = codec.decompress(stream)
                    best_d = min(best_d, t.seconds)
                same_stream = stream.to_bytes() == ref_stream
                same_roundtrip = bool(
                    float(np.abs(out - arr).max())
                    <= cfg.eps + bound_slack(arr, cfg.eps)
                )
            finally:
                codec.close()

            best_r = float("inf")
            with get_backend(backend_name, nw) as be:
                for _ in range(reps):
                    with Timer() as t:
                        mu = parallel_mean(stream, be)
                        var = parallel_variance(stream, be)
                    best_r = min(best_r, t.seconds)
            if backend_name == "serial":
                serial_compress[nw] = best_c
                # Variance partials depend on the chunking, so the serial
                # reference is per worker count, never cross-count.
                ref_reduce[nw] = (mu, var)
            same_reduce = (mu, var) == ref_reduce[nw]
            identical = identical and same_stream and same_reduce and same_roundtrip

            speedup = serial_compress.get(nw, best_c) / best_c if best_c > 0 else 0.0
            rows.append(
                [
                    backend_name,
                    nw,
                    1e3 * best_c,
                    1e3 * best_d,
                    1e3 * best_r,
                    speedup,
                    "yes" if (same_stream and same_reduce) else "NO",
                ]
            )
            cells.append(
                {
                    "backend": backend_name,
                    "workers": nw,
                    "compress_seconds": best_c,
                    "compress_stage_seconds": {
                        "QZ": stages.get("quantize_s", 0.0),
                        "LZ": stages.get("lorenzo_s", 0.0),
                        "BF": stages.get("encode_s", 0.0),
                    },
                    "decompress_seconds": best_d,
                    "reduce_seconds": best_r,
                    "mean": mu,
                    "variance": var,
                    "stream_identical": bool(same_stream),
                    "reductions_identical": bool(same_reduce),
                }
            )

    bench = {
        "experiment": "parallel_backends",
        "dataset": dataset,
        "field": fname,
        "shape": list(arr.shape),
        "n_elements": int(arr.size),
        "bytes": int(arr.nbytes),
        "eps": cfg.eps,
        "block_size": BLOCK_SIZE,
        "repeats": reps,
        "workers": list(workers),
        "backends": list(available_backends()),
        "cpus": cpus,
        "all_identical": bool(identical),
        "cells": cells,
    }
    return ExperimentResult(
        exp_id="parallel_backends",
        title=(
            f"Execution backends on {dataset}/{fname} ({arr.size} elements, "
            f"eps={cfg.eps:g}, {cpus} CPU(s)): compress / decompress / "
            f"mean+variance, best of {reps}"
        ),
        headers=[
            "backend",
            "workers",
            "compress (ms)",
            "decompress (ms)",
            "mean+var (ms)",
            "speedup vs serial",
            "identical",
        ],
        rows=rows,
        notes=[
            "All backends share one chunking and one kernel set; streams and "
            "reductions are bit-identical by construction (asserted).",
            f"Host has {cpus} CPU(s); process/thread scaling is bounded by "
            "physical cores, so single-core hosts show overhead, not speedup.",
        ],
        extras={"bench": bench},
    )


def run_ablation_constant_blocks(cfg: BenchConfig) -> ExperimentResult:
    """Section VI-B2: reduction kernel time tracks the constant fraction."""
    from repro.datasets.synthetic import FieldSpec, synthesize_field
    from repro.core.ops import mean as c_mean

    shape = (64, 96, 96)
    szops = SZOps(block_size=BLOCK_SIZE)
    rows = []
    for plateau in (0.0, 0.2, 0.4, 0.6, 0.8):
        spec = FieldSpec("sweep", beta=6.3, amplitude=0.03, plateau=plateau, noise=5e-5)
        arr = synthesize_field(spec, shape, seed=cfg.seed)
        c = szops.compress(arr, cfg.eps)
        best = float("inf")
        for _ in range(max(cfg.repeats, 3)):
            with Timer() as t:
                c_mean(c)
            best = min(best, t.seconds)
        rows.append([plateau, c.constant_fraction * 100.0, best * 1e3])
    return ExperimentResult(
        exp_id="ablation_constant_blocks",
        title="Ablation: constant-block fraction vs mean-reduction kernel time",
        headers=["plateau fraction", "const blocks %", "mean kernel (ms)"],
        rows=rows,
        notes=[
            "Backs Section VI-B2: more constant blocks -> fewer decoded "
            "payload bits -> faster reductions."
        ],
    )
