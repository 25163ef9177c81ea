"""Factorial run tables: the declarative half of the experiment engine.

A :class:`RunTable` names a *workload* (how one cell is executed — see
:mod:`repro.harness.experiments.executor`) and a mapping of *factors* to
level tuples.  :meth:`RunTable.expand` produces the full factorial cross
as a deterministic, ordered list of :class:`Cell` objects:

* the cell count is exactly the product of the factor level counts;
* ordering is row-major over the factors **in declaration order**, with
  levels in declaration order (the last factor varies fastest) — the same
  table always expands to the same sequence;
* every cell carries a content-addressed ``cell_id`` (hash of workload +
  factor assignment), so artifact files and index rows survive renumbering
  and a resumed run can skip exactly the completed cells.

``config_hash`` extends the same hashing to the full (table, bench-config)
pair; it is stamped into the run manifest and the index so longitudinal
queries can group runs that measured the same thing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.harness.config import BenchConfig

__all__ = [
    "ARTIFACTS",
    "ArtifactSpec",
    "Cell",
    "RunTable",
    "PREDEFINED_TABLES",
    "canonical_json",
    "get_table",
    "table_artifacts",
    "table_names",
]

#: Factor levels must round-trip through JSON unchanged.
_LEVEL_TYPES = (str, int, float, bool)


def canonical_json(obj: Any) -> str:
    """Stable, whitespace-free JSON used for every hash in the engine."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Cell:
    """One factor assignment of an expanded run table."""

    index: int
    cell_id: str
    workload: str
    factors: Mapping[str, Any]

    def label(self) -> str:
        parts = [f"{k}={self.factors[k]}" for k in self.factors]
        return f"[{self.index:03d}] " + " ".join(parts)


@dataclass(frozen=True)
class RunTable:
    """A named factorial design: workload x factor grid x repetitions."""

    name: str
    workload: str
    factors: Mapping[str, tuple]
    repeats: int = 3
    description: str = ""
    #: Extra workload knobs that are fixed for the whole table (not crossed).
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a run table needs at least one factor")
        for fname, levels in self.factors.items():
            if not isinstance(levels, tuple) or not levels:
                raise ValueError(
                    f"factor {fname!r} must be a non-empty tuple of levels"
                )
            for lv in levels:
                if not isinstance(lv, _LEVEL_TYPES):
                    raise ValueError(
                        f"factor {fname!r} level {lv!r} is not JSON-scalar"
                    )
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    @property
    def n_cells(self) -> int:
        n = 1
        for levels in self.factors.values():
            n *= len(levels)
        return n

    def expand(self) -> list[Cell]:
        """The full factorial cross, row-major in factor declaration order."""
        names = list(self.factors)
        cells: list[Cell] = []
        for index, combo in enumerate(
            itertools.product(*(self.factors[n] for n in names))
        ):
            assignment = dict(zip(names, combo))
            cell_id = _digest({"workload": self.workload, "factors": assignment})[:16]
            cells.append(
                Cell(
                    index=index,
                    cell_id=cell_id,
                    workload=self.workload,
                    factors=assignment,
                )
            )
        return cells

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "workload": self.workload,
            "factors": {k: list(v) for k, v in self.factors.items()},
            "repeats": self.repeats,
            "description": self.description,
            "options": dict(self.options),
        }

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "RunTable":
        return cls(
            name=doc["name"],
            workload=doc["workload"],
            factors={k: tuple(v) for k, v in doc["factors"].items()},
            repeats=int(doc.get("repeats", 3)),
            description=doc.get("description", ""),
            options=dict(doc.get("options", {})),
        )

    def config_hash(self, cfg: BenchConfig) -> str:
        """Hash of everything that determines the measurement, not the host."""
        return _digest(
            {
                "table": self.to_json(),
                "bench": {
                    "scale": cfg.scale,
                    "seed": cfg.seed,
                    "max_fields": cfg.max_fields,
                },
            }
        )


# --------------------------------------------------------------------------
# Predefined tables: the paper's artifacts, the benchmark sweeps, the CI smoke
# --------------------------------------------------------------------------

#: The paper's four evaluation datasets (Section VI-A).
_PAPER_DATASETS = ("Hurricane", "CESM-ATM", "SCALE-LETKF", "Miranda")

#: The baseline codecs of Tables IV and VII, in the paper's column order.
_BASELINE_CODECS = ("SZp", "SZ2", "SZ3", "SZx", "ZFP")


def _parallel_backends_table(
    workers: tuple[int, ...] = (1, 2, 4, 8), dataset: str = "Miranda"
) -> RunTable:
    from repro.parallel.backends import available_backends

    return RunTable(
        name="parallel-backends",
        workload="pipeline",
        factors={
            "dataset": (dataset,),
            "eps": (1e-4,),
            "backend": tuple(available_backends()),
            "workers": workers,
            "chain_depth": (0,),
            "clients": (0,),
            "kernel": ("bitarray", "wordpack"),
        },
        repeats=3,
        description=(
            "Parallel backends: compress (QZ/LZ/BF split), decompress, "
            "and backend-routed mean/variance for every backend x worker "
            "count x bitpack kernel, bit-identity asserted per cell."
        ),
    )


def _runtime_fusion_table(dataset: str = "Miranda") -> RunTable:
    return RunTable(
        name="runtime-fusion",
        workload="fusion",
        factors={"dataset": (dataset,), "eps": (1e-4,)},
        repeats=3,
        description=(
            "Runtime fusion: fused negate -> xS -> mean chain vs the eager "
            "three-op replay, identical results asserted."
        ),
    )


def _service_batching_table(
    dataset: str = "Miranda",
    clients: int = 8,
    requests_per_client: int = 25,
    eps: float = 1e-3,
    backend: str = "serial",
    n_workers: int = 1,
) -> RunTable:
    return RunTable(
        name="service-batching",
        workload="service",
        factors={
            "dataset": (dataset,),
            "eps": (eps,),
            "clients": (clients,),
        },
        repeats=1,
        description=(
            "Service batching (repro bench-serve): batched vs unbatched "
            "serving throughput over a real ThreadedServer, replies "
            "bit-identical to the eager chain."
        ),
        options={
            "requests_per_client": requests_per_client,
            "backend": backend,
            "n_workers": n_workers,
        },
    )


def _ops_matrix_table(datasets: tuple[str, ...] = _PAPER_DATASETS) -> RunTable:
    from repro.core.ops.dispatch import operation_names

    return RunTable(
        name="ops-matrix",
        workload="ops_matrix",
        factors={
            "dataset": datasets,
            "eps": (1e-4,),
            "op": tuple(operation_names()),
        },
        repeats=1,
        description=(
            "Figures 5/6 substrate: per (dataset, op) cell, SZp traditional "
            "decompress/operate/compress stages vs the SZOps kernel."
        ),
    )


def _table4_table() -> RunTable:
    from repro.core.ops.dispatch import operation_names

    return RunTable(
        name="table4",
        workload="ops_matrix",
        factors={
            "dataset": ("Hurricane",),
            "eps": (1e-4,),
            "op": tuple(operation_names()),
            "codec": _BASELINE_CODECS,
        },
        repeats=1,
        description=(
            "Table IV: every op through each baseline codec's traditional "
            "workflow (decompress, operate, recompress) on Hurricane."
        ),
    )


def _ratios_table(
    name: str,
    datasets: tuple[str, ...],
    codecs: tuple[str, ...],
    eps: float,
    mode: str,
    description: str,
    all_fields: bool = False,
) -> RunTable:
    return RunTable(
        name=name,
        workload="ratios",
        factors={
            "dataset": datasets,
            "codec": codecs,
            "eps": (eps,),
            "mode": (mode,),
        },
        repeats=1,
        description=description,
        options={"all_fields": True} if all_fields else {},
    )


def _table6_table(datasets: tuple[str, ...] = _PAPER_DATASETS) -> RunTable:
    # The paper states eps = 1e-2; on the synthetic stand-ins it is read as
    # value-range relative (the absolute reading degenerates for the
    # small-amplitude fields).
    return _ratios_table(
        "table6",
        datasets,
        ("SZOps",),
        1e-2,
        "rel",
        "Table VI: SZOps constant vs total blocks per dataset over every "
        "field, eps 1e-2 value-range relative.",
        all_fields=True,
    )


def _table7_table(datasets: tuple[str, ...] = _PAPER_DATASETS) -> RunTable:
    return _ratios_table(
        "table7",
        datasets,
        ("SZOps", *_BASELINE_CODECS),
        1e-4,
        "abs",
        "Table VII: mean per-field compression ratio per dataset and codec "
        "over every field, eps 1e-4 absolute.",
        all_fields=True,
    )


def _ablation_format_table() -> RunTable:
    return _ratios_table(
        "ablation-format",
        ("Hurricane",),
        (
            "SZp",
            "SZp-no-lengths",
            "SZp-no-signmap",
            "SZp-no-align",
            "SZp-stripped",
            "SZOps",
        ),
        1e-4,
        "abs",
        "Section VI-B3 ablation: SZp with its stream-format overheads "
        "switched off one at a time, then all, vs the SZOps container.",
    )


def _ablation_constant_blocks_table() -> RunTable:
    return RunTable(
        name="ablation-constant-blocks",
        workload="plateau_sweep",
        factors={"plateau": (0.0, 0.2, 0.4, 0.6, 0.8), "eps": (1e-4,)},
        repeats=3,
        description=(
            "Section VI-B2 ablation: cold mean-kernel time vs the "
            "constant-block fraction of a synthetic plateau field."
        ),
    )


def _perf_smoke_table() -> RunTable:
    return RunTable(
        name="perf-smoke",
        workload="pipeline",
        factors={
            "dataset": ("Miranda",),
            "eps": (1e-3,),
            "backend": ("serial", "threads"),
            "workers": (1, 2),
            "chain_depth": (0, 3),
            "clients": (0,),
            "kernel": ("bitarray", "wordpack"),
        },
        repeats=3,
        description=(
            "CI gate: 2x2x2x2 pipeline table (backend x workers x chain "
            "depth x bitpack kernel). Identity flags hard-fail; timing "
            "regressions gate behind the CPU-count policy."
        ),
    )


def _bitpack_kernels_table(
    widths: tuple[int, ...] = (1, 2, 3, 4, 5, 8, 11, 12, 16, 24, 32),
    size: int = 1 << 20,
) -> RunTable:
    from repro.bitstream import available_kernels

    return RunTable(
        name="bitpack-kernels",
        workload="bitpack",
        factors={
            "kernel": tuple(available_kernels()),
            "width": widths,
        },
        repeats=3,
        description=(
            "Bitpack kernel microbenchmark (szops bench-bitpack): pack and "
            "unpack throughput per (kernel, width) over a fixed random lane "
            "array, payload byte-identity vs the bitarray reference and "
            "exact round-trip asserted per cell."
        ),
        options={"size": size},
    )


def _cluster_scale_table(
    nodes: tuple[int, ...] = (1, 3, 5),
    replicas: tuple[int, ...] = (1, 2),
    clients: tuple[int, ...] = (2, 8),
    requests_per_client: int = 15,
    chunks: int = 6,
    n_elements: int = 30_000,
    eps: float = 1e-3,
) -> RunTable:
    return RunTable(
        name="cluster-scale",
        workload="cluster",
        factors={
            "nodes": tuple(int(n) for n in nodes),
            "replicas": tuple(int(r) for r in replicas),
            "clients": tuple(int(c) for c in clients),
        },
        repeats=1,
        description=(
            "Sharded-cluster scaling grid: nodes x replicas x concurrent "
            "clients driving mixed PUT/distributed-REDUCE load, every "
            "reduction checked for identity with the single-node value "
            "(mean/min/max/variance bit-identical)."
        ),
        options={
            "requests_per_client": requests_per_client,
            "chunks": chunks,
            "n_elements": n_elements,
            "eps": eps,
        },
    )


PREDEFINED_TABLES: dict[str, Any] = {
    "cluster-scale": _cluster_scale_table,
    "parallel-backends": _parallel_backends_table,
    "bitpack-kernels": _bitpack_kernels_table,
    "runtime-fusion": _runtime_fusion_table,
    "service-batching": _service_batching_table,
    "ops-matrix": _ops_matrix_table,
    "perf-smoke": _perf_smoke_table,
    "table4": _table4_table,
    "table6": _table6_table,
    "table7": _table7_table,
    "ablation-format": _ablation_format_table,
    "ablation-constant-blocks": _ablation_constant_blocks_table,
}


def table_names() -> list[str]:
    return sorted(PREDEFINED_TABLES)


def get_table(name: str, **kwargs: Any) -> RunTable:
    """Instantiate a predefined run table by name."""
    try:
        factory = PREDEFINED_TABLES[name]
    except KeyError:
        raise ValueError(
            f"unknown run table {name!r}; available: {', '.join(table_names())}"
        ) from None
    return factory(**kwargs)


# --------------------------------------------------------------------------
# Paper artifacts: how each results/<name>.md renders from a table's cells
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactSpec:
    """One rendered paper artifact over the cells of one run table.

    ``rows`` and ``values`` are (header, metric key) pairs: each cell's
    metrics give one row.  With ``pivot`` set, the levels of that metric
    become the columns and ``values`` names the one metric they hold, so
    cells that share a row key merge into one row.
    """

    table: str
    title: str
    rows: tuple[tuple[str, str], ...]
    values: tuple[tuple[str, str], ...]
    pivot: str | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.pivot is not None and len(self.values) != 1:
            raise ValueError("a pivoted artifact renders exactly one metric")


_DATASET_OP = (("Dataset", "dataset"), ("Operation", "op"))

ARTIFACTS: dict[str, ArtifactSpec] = {
    "table4": ArtifactSpec(
        table="table4",
        title=(
            "Table IV: throughput (MB/s) for operations on Hurricane via the "
            "traditional workflow (decompress + operate [+ recompress]), eps=1e-4"
        ),
        rows=(("Operation", "op"),),
        values=(("MB/s", "traditional_mbs"),),
        pivot="codec",
        notes=(
            "Expected shape (paper): SZp fastest, ~1.5x over SZx; SZ2/SZ3/ZFP "
            "well behind.",
        ),
    ),
    "figure5": ArtifactSpec(
        table="ops-matrix",
        title=(
            "Figure 5: time cost (s) of SZp traditional workflow stages vs the "
            "SZOps kernel, eps=1e-4"
        ),
        rows=_DATASET_OP,
        values=(
            ("SZp decompress", "traditional_decompress_seconds"),
            ("SZp operate", "traditional_operate_seconds"),
            ("SZp compress", "traditional_compress_seconds"),
            ("SZp total", "traditional_total_seconds"),
            ("SZOps total", "szops_kernel_seconds"),
            ("reduction %", "reduction_pct"),
        ),
        notes=(
            "Paper shape: SZOps time below SZp for every operation; largest "
            "reductions for negation / scalar add / scalar sub (fully "
            "compressed space).",
            "SZOps total times the kernel cold (decoded-block cache off).",
        ),
    ),
    "figure6": ArtifactSpec(
        table="ops-matrix",
        title=(
            "Figure 6: SZOps kernel throughput vs SZp end-to-end throughput "
            "(GB/s), eps=1e-4; rightmost column is the per-op speedup ratio "
            "printed above each bar in the paper"
        ),
        rows=_DATASET_OP,
        values=(
            ("SZOps GB/s", "szops_kernel_gbs"),
            ("SZOps warm GB/s", "szops_kernel_warm_gbs"),
            ("SZp GB/s", "traditional_gbs"),
            ("speedup x", "speedup"),
        ),
        notes=(
            "Paper shape: SZOps above SZp everywhere (2x-200x); reductions "
            "are the slowest SZOps operations.",
            "SZOps GB/s and the speedup time the kernel cold (decoded-block "
            "cache off); the warm column reruns it on a cached decoded view. "
            "Negation, scalar add and scalar subtract never read that cache: "
            "their warm call is just the third back-to-back call on the same "
            "planes, so their warm/cold gap is not a cache effect.",
        ),
    ),
    "table6": ArtifactSpec(
        table="table6",
        title=(
            "Table VI: constant blocks vs total blocks per dataset "
            "(eps=1e-2, value-range relative)"
        ),
        rows=(("Dataset", "dataset"),),
        values=(
            ("Const. blocks", "constant_blocks"),
            ("Total blocks", "total_blocks"),
            ("% (Const./Total)", "constant_pct"),
        ),
        notes=(
            "Paper: Hurricane 13%, CESM-ATM 1.5%, SCALE-LETKF 4%, Miranda 14%.",
            "Known deviation: synthetic SCALE-LETKF hydrometeors are exactly "
            "zero outside cloud blobs, so its constant fraction is higher "
            "than the paper's 4% (real fields carry denormal-scale noise).",
        ),
    ),
    "table7": ArtifactSpec(
        table="table7",
        title="Table VII: average compression ratios (eps=1e-4, absolute)",
        rows=(("Dataset", "dataset"),),
        values=(("mean ratio", "mean_ratio"),),
        pivot="codec",
        notes=(
            "Aggregation: arithmetic mean of per-field ratios; SZ2 is the "
            "paper's SZ column.",
            "Paper shape: SZOps > SZp on every dataset; SZ/SZ3 far above both; "
            "SZx/ZFP between.",
        ),
    ),
    "ablation_format": ArtifactSpec(
        table="ablation-format",
        title=(
            "Ablation: SZp stream-format overheads vs compression ratio "
            "(Hurricane, eps=1e-4)"
        ),
        rows=(("Variant", "codec"),),
        values=(("mean ratio", "mean_ratio"),),
        notes=(
            "Variants: SZp-no-lengths drops the per-block byte-length plane, "
            "SZp-no-signmap the full sign bitmap, SZp-no-align the word "
            "alignment; SZp-stripped drops all three (SZOps-shaped).",
            "Backs Section VI-B3: removing the per-block byte-length limits "
            "and related overheads recovers the SZOps ratio.",
        ),
    ),
    "ablation_constant_blocks": ArtifactSpec(
        table="ablation-constant-blocks",
        title="Ablation: constant-block fraction vs mean-reduction kernel time",
        rows=(("plateau fraction", "plateau"),),
        values=(
            ("const blocks %", "constant_pct"),
            ("mean kernel (s)", "mean_seconds"),
        ),
        notes=(
            "Backs Section VI-B2: more constant blocks -> fewer decoded "
            "payload bits -> faster reductions.  The kernel runs cold "
            "(decoded-block cache off), best of at least 3.",
        ),
    ),
}


def table_artifacts(table_name: str) -> list[str]:
    """The artifacts that render from ``table_name``'s cells."""
    return [name for name, spec in ARTIFACTS.items() if spec.table == table_name]
