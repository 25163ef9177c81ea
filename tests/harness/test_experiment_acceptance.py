"""End-to-end acceptance: real kernels through the factorial engine.

Scaled-down versions of the acceptance criteria: the predefined
parallel-backends table reproduces ``BENCH_parallel.json``'s cell
structure with every bit-identity flag true, and a chain/service cell of
the tentpole pipeline workload verifies against its eager references.
Everything runs at a tiny synthetic scale so this stays tier-1-sized;
the full-scale sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.harness.config import BenchConfig
from repro.harness.experiments import (
    RunTable,
    bench_parallel_payload,
    get_table,
    run_experiment,
)
from repro.parallel.backends import available_backends

TINY = BenchConfig(scale=0.12, repeats=1)


@pytest.fixture(scope="module")
def parallel_run(tmp_path_factory):
    table = get_table("parallel-backends", workers=(1, 2))
    import dataclasses

    table = dataclasses.replace(table, repeats=1)
    root = tmp_path_factory.mktemp("acceptance")
    return table, run_experiment(
        table, TINY, root, index_path=root / "experiments.db"
    )


def test_parallel_backends_cells_cover_the_factorial(parallel_run):
    table, result = parallel_run
    assert result.executed == table.n_cells
    combos = {
        (
            c["factors"]["backend"],
            c["factors"]["workers"],
            c["factors"]["kernel"],
        )
        for c in result.cells
    }
    assert combos == {
        (b, w, k)
        for b in available_backends()
        for w in (1, 2)
        for k in ("bitarray", "wordpack")
    }


def test_parallel_backends_identity_flags_all_true(parallel_run):
    _, result = parallel_run
    assert result.all_ok
    for cell in result.cells:
        m = cell["metrics"]
        assert m["stream_identical"] is True, cell["factors"]
        assert m["reductions_identical"] is True, cell["factors"]
        assert m["roundtrip_ok"] is True, cell["factors"]


def test_parallel_backends_reproduces_bench_payload_shape(parallel_run):
    table, result = parallel_run
    bench = bench_parallel_payload(result.manifest, result.cells)
    assert bench["experiment"] == "parallel_backends"
    assert bench["all_identical"] is True
    assert bench["workers"] == [1, 2]
    assert bench["backends"] == list(available_backends())
    assert bench["kernels"] == ["bitarray", "wordpack"]
    assert len(bench["cells"]) == table.n_cells
    for cell in bench["cells"]:
        assert set(cell) == {
            "backend", "workers", "kernel", "compress_seconds",
            "compress_stage_seconds", "decompress_seconds",
            "reduce_seconds", "mean", "variance",
            "stream_identical", "reductions_identical",
        }
        assert set(cell["compress_stage_seconds"]) == {"QZ", "LZ", "BF"}


def test_bitpack_kernel_cells_assert_byte_identity(tmp_path):
    import dataclasses

    table = get_table("bitpack-kernels", widths=(4, 11), size=4096)
    table = dataclasses.replace(table, repeats=1)
    result = run_experiment(table, TINY, tmp_path)
    assert result.all_ok
    for cell in result.cells:
        m = cell["metrics"]
        assert m["identical_to_bitarray"] is True, cell["factors"]
        assert m["roundtrip_ok"] is True, cell["factors"]
        assert m["pack_seconds"] > 0 and m["unpack_seconds"] > 0


def test_pipeline_chain_cell_verifies_against_eager_reference(tmp_path):
    table = RunTable(
        name="chain-accept",
        workload="pipeline",
        factors={
            "dataset": ("Miranda",),
            "eps": (1e-3,),
            "backend": ("serial",),
            "workers": (1,),
            "chain_depth": (3,),
            "clients": (0,),
        },
        repeats=1,
    )
    result = run_experiment(table, TINY, tmp_path)
    assert result.all_ok
    m = result.cells[0]["metrics"]
    assert m["chain_identical"] is True
    assert m["chain"] == ["negation", "scalar_add=0.25", "scalar_multiply=1.5"]
    assert m["chain_seconds"] > 0


def test_pipeline_service_cell_drives_a_real_server(tmp_path):
    table = RunTable(
        name="service-accept",
        workload="pipeline",
        factors={
            "dataset": ("Miranda",),
            "eps": (1e-3,),
            "backend": ("serial",),
            "workers": (1,),
            "chain_depth": (1,),
            "clients": (2,),
        },
        repeats=1,
        options={"requests_per_client": 2},
    )
    result = run_experiment(table, TINY, tmp_path)
    assert result.all_ok
    service = result.cells[0]["metrics"]["service"]
    assert service["completed_requests"] == service["total_requests"] == 4
    assert service["replies_identical"] is True
    assert service["errors"] == []


def test_pipeline_reductions_match_across_worker_counts(tmp_path):
    """Exact moments: one serial reference serves every worker count."""
    table = RunTable(
        name="reduce-accept",
        workload="pipeline",
        factors={
            "dataset": ("Miranda",),
            "eps": (1e-3,),
            "backend": ("serial", "threads"),
            "workers": (1, 3),
            "chain_depth": (0,),
            "clients": (0,),
        },
        repeats=1,
    )
    result = run_experiment(table, TINY, tmp_path)
    assert result.all_ok
    metrics = [cell["metrics"] for cell in result.cells]
    assert all(m["reductions_identical"] is True for m in metrics)
    assert len({(m["mean"], m["variance"]) for m in metrics}) == 1


def test_bench_bitpack_writes_a_stamped_snapshot(tmp_path, capsys):
    from repro.cli import main
    from repro.harness import BENCH_SCHEMA_VERSION, load_bench_json

    out = tmp_path / "BENCH_bitpack.json"
    rc = main(
        [
            "bench-bitpack", "--widths", "1,11", "--size", "4096",
            "--repeats", "1", "-o", str(out),
        ]
    )
    assert rc == 0
    assert f"[bench JSON -> {out}]" in capsys.readouterr().out
    doc = load_bench_json(out)
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION == 2
    assert doc["experiment"] == "bitpack_kernels"
    assert doc["size"] == 4096
    assert doc["all_identical"] is True
    assert {c["width"] for c in doc["cells"]} == {1, 11}
