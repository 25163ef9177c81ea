"""Experiment drivers that regenerate every table and figure of the paper.

Each ``run_*`` function measures one artifact (see DESIGN.md's experiment
index) and returns an :class:`ExperimentResult` whose rows mirror the
paper's layout.  The benchmark modules under ``benchmarks/`` call these
drivers and persist their renderings; ``repro.harness.records`` assembles
EXPERIMENTS.md from the same objects.  Figures 5/6 only render: their
measurements are the ``ops-matrix`` cells of the experiment engine
(:mod:`repro.harness.experiments`), which times every other workload too.

Workload preparation is shared: fields come from the synthetic SDRBench
stand-ins at the configured scale, and every codec runs with its default
block geometry, the paper's 64-element blocks (Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.baselines import make_codec
from repro.core.compressor import SZOps
from repro.core.format import SZOpsCompressed
from repro.core.ops.dispatch import OPERATIONS, operation_names
from repro.datasets import generate_fields, get_dataset
from repro.harness.config import BenchConfig
from repro.metrics import Timer, mb_per_s, gb_per_s, mean_ratio
from repro.parallel import kernels
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.workflow import run_traditional

__all__ = [
    "ExperimentResult",
    "OpMeasurement",
    "prepare_fields",
    "compress_fields",
    "run_table4",
    "run_figure5",
    "run_figure6",
    "run_table6",
    "run_table7",
    "run_ablation_format",
    "run_ablation_constant_blocks",
    "DEFAULT_SCALAR",
]

#: Scalar operand used for scalar add/sub/mul across the evaluation
#: (mirrors the paper's Section V examples).
DEFAULT_SCALAR = 3.14


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
    block_size: int = 64,
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
    #: Cold kernel: decoded-block cache off, the paper's semantics.
    szops_kernel_s: float
    #: The same kernel on a stream whose decoded view is already cached.
    szops_kernel_warm_s: float

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


def run_figure5(cfg: BenchConfig, matrix: list[OpMeasurement]) -> ExperimentResult:
    """Time-cost breakdown: SZp decompress/operate/compress vs SZOps total.

    ``matrix`` holds the ``ops-matrix`` engine cells, lifted by
    :func:`repro.harness.experiments.ops_matrix_from_cells`.
    """
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


def run_figure6(cfg: BenchConfig, matrix: list[OpMeasurement]) -> ExperimentResult:
    """Kernel throughput of SZOps vs end-to-end throughput of SZp."""
    rows = [
        [
            m.dataset,
            m.op_name,
            gb_per_s(m.bytes, m.szops_kernel_s),
            gb_per_s(m.bytes, m.szops_kernel_warm_s),
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
        headers=[
            "Dataset",
            "Operation",
            "SZOps GB/s",
            "SZOps warm GB/s",
            "SZp GB/s",
            "speedup x",
        ],
        rows=rows,
        notes=[
            "Paper shape: SZOps above SZp everywhere (2x-200x); reductions "
            "are the slowest SZOps operations.",
            "SZOps GB/s and the speedup time the kernel cold (decoded-block "
            "cache off); the warm column reruns it on a cached decoded view.",
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
    szops = SZOps()
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
    szops = SZOps()
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
        codec = make_codec("SZp", **kwargs)
        ratios = [codec.compress(arr, cfg.eps).compression_ratio for arr in fields.values()]
        rows.append([label, mean_ratio(ratios)])
    szops = SZOps()
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


def run_ablation_constant_blocks(cfg: BenchConfig) -> ExperimentResult:
    """Section VI-B2: reduction kernel time tracks the constant fraction."""
    from repro.datasets.synthetic import FieldSpec, synthesize_field
    from repro.core.ops import mean as c_mean
    from repro.runtime import cache_disabled

    shape = (64, 96, 96)
    szops = SZOps()
    rows = []
    for plateau in (0.0, 0.2, 0.4, 0.6, 0.8):
        spec = FieldSpec("sweep", beta=6.3, amplitude=0.03, plateau=plateau, noise=5e-5)
        arr = synthesize_field(spec, shape, seed=cfg.seed)
        c = szops.compress(arr, cfg.eps)
        best = float("inf")
        # with the decoded-block cache on, every repeat after the first
        # would read back memoised moments instead of running the kernel
        with cache_disabled():
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
