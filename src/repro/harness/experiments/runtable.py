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
    "Cell",
    "RunTable",
    "PREDEFINED_TABLES",
    "canonical_json",
    "get_table",
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
# Predefined tables: the benchmark sweeps, the figure substrate, the CI smoke
# --------------------------------------------------------------------------


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


def _ops_matrix_table(
    datasets: tuple[str, ...] = ("Hurricane", "CESM-ATM", "SCALE-LETKF", "Miranda"),
) -> RunTable:
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
