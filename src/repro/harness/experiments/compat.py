"""``BENCH_*.json`` shapes emitted from engine runs.

Every snapshot producer (``repro bench`` -> ``BENCH_parallel.json``,
``repro bench-bitpack`` -> ``BENCH_bitpack.json``, the runtime-fusion
benchmark -> ``BENCH_runtime.json``, ``repro bench-serve`` ->
``BENCH_service.json``, ``repro cluster bench`` -> ``BENCH_cluster.json``)
executes through the experiment engine; :func:`bench_payload` rebuilds
the documented payload shape of a run from its cell documents, so every
downstream consumer keeps working while the engine's artifact/index
representation stays canonical.

The Figures 5/6 benchmarks consume the engine the other way around:
:func:`ops_matrix_from_cells` lifts indexed ``ops_matrix`` cells back
into the :class:`~repro.harness.runner.OpMeasurement` rows the figure
renderers take.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.harness.runner import OpMeasurement

__all__ = [
    "BENCH_PAYLOADS",
    "bench_bitpack_payload",
    "bench_cell_payload",
    "bench_parallel_payload",
    "bench_payload",
    "ops_matrix_from_cells",
]


def bench_parallel_payload(
    manifest: Mapping[str, Any], cells: list[Mapping[str, Any]]
) -> dict[str, Any]:
    """Rebuild the ``BENCH_parallel.json`` payload from pipeline cells."""
    if not cells:
        raise ValueError("cannot build a parallel bench payload from zero cells")
    first = cells[0]["metrics"]
    backends: list[str] = []
    workers: list[int] = []
    kernels: list[str] = []
    out_cells: list[dict[str, Any]] = []
    all_identical = True
    for cell in cells:
        m = cell["metrics"]
        if m["backend"] not in backends:
            backends.append(m["backend"])
        if m["workers"] not in workers:
            workers.append(m["workers"])
        if m.get("kernel", "auto") not in kernels:
            kernels.append(m.get("kernel", "auto"))
        all_identical = all_identical and bool(cell["ok"])
        out_cells.append(
            {
                "backend": m["backend"],
                "workers": m["workers"],
                "kernel": m.get("kernel", "auto"),
                "compress_seconds": m["compress_seconds"],
                "compress_stage_seconds": dict(m["compress_stage_seconds"]),
                "decompress_seconds": m["decompress_seconds"],
                "reduce_seconds": m["reduce_seconds"],
                "mean": m["mean"],
                "variance": m["variance"],
                "stream_identical": m["stream_identical"],
                "reductions_identical": m["reductions_identical"],
            }
        )
    return {
        "experiment": "parallel_backends",
        "dataset": first["dataset"],
        "field": first["field"],
        "n_elements": first["n_elements"],
        "bytes": first["bytes"],
        "eps": first["eps"],
        "block_size": first["block_size"],
        "repeats": first["repeats"],
        "workers": sorted(workers),
        "backends": backends,
        "kernels": kernels,
        "cpus": int(manifest["host"]["cpu_count"]),
        "all_identical": bool(all_identical),
        "cells": out_cells,
        "run_id": manifest["run_id"],
    }


def bench_bitpack_payload(
    manifest: Mapping[str, Any], cells: list[Mapping[str, Any]]
) -> dict[str, Any]:
    """The ``BENCH_bitpack.json`` payload from bitpack cells."""
    return {
        "experiment": "bitpack_kernels",
        "size": int(manifest["table"]["options"]["size"]),
        "all_identical": bool(cells) and all(bool(c["ok"]) for c in cells),
        "cells": [dict(c["metrics"]) for c in cells],
        "run_id": manifest["run_id"],
    }


def bench_cell_payload(
    manifest: Mapping[str, Any], cells: list[Mapping[str, Any]]
) -> dict[str, Any]:
    """A one-cell run's payload: the cell's metrics, passed through."""
    if len(cells) != 1:
        raise ValueError(
            f"a {manifest['table']['name']} bench payload holds one cell, "
            f"got {len(cells)}"
        )
    return dict(cells[0]["metrics"])


#: Table name -> builder of its ``BENCH_*.json`` payload.
BENCH_PAYLOADS: dict[
    str, Callable[[Mapping[str, Any], list[Mapping[str, Any]]], dict[str, Any]]
] = {
    "parallel-backends": bench_parallel_payload,
    "bitpack-kernels": bench_bitpack_payload,
    "runtime-fusion": bench_cell_payload,
    "service-batching": bench_cell_payload,
    "cluster-scale": bench_cell_payload,
}


def bench_payload(
    manifest: Mapping[str, Any], cells: list[Mapping[str, Any]]
) -> dict[str, Any]:
    """The ``BENCH_*.json`` payload of a run, chosen by its table's name."""
    name = manifest["table"]["name"]
    try:
        build = BENCH_PAYLOADS[name]
    except KeyError:
        raise ValueError(f"no BENCH payload for table {name!r}") from None
    return build(manifest, cells)


def ops_matrix_from_cells(cells: list[Mapping[str, Any]]) -> list[OpMeasurement]:
    """Indexed ``ops_matrix`` cells -> Figure 5/6 measurement rows."""
    out: list[OpMeasurement] = []
    for cell in cells:
        m = cell["metrics"]
        out.append(
            OpMeasurement(
                dataset=m["dataset"],
                op_name=m["op"],
                bytes=int(m["bytes"]),
                szp_decompress_s=float(m["szp_decompress_seconds"]),
                szp_operate_s=float(m["szp_operate_seconds"]),
                szp_compress_s=float(m["szp_compress_seconds"]),
                szops_kernel_s=float(m["szops_kernel_seconds"]),
            )
        )
    return out
