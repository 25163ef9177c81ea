"""End-to-end acceptance: real kernels through the factorial engine.

Scaled-down versions of the acceptance criteria: the predefined
parallel-backends table covers backend x workers x kernel with every
per-cell metric recorded and every bit-identity flag true, and a
chain/service cell of the tentpole pipeline workload verifies against
its eager references.
Everything runs at a tiny synthetic scale so this stays tier-1-sized;
the full-scale sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.harness.config import BenchConfig
from repro.harness.experiments import (
    REPORT_SCHEMA_VERSION,
    RunTable,
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
    assert result.all_ok
    assert len(result.cells) == table.n_cells
    metrics = [cell["metrics"] for cell in result.cells]
    assert {(m["backend"], m["workers"], m["kernel"]) for m in metrics} == {
        (b, w, k)
        for b in available_backends()
        for w in (1, 2)
        for k in ("bitarray", "wordpack")
    }
    assert list(dict.fromkeys(m["backend"] for m in metrics)) == list(
        available_backends()
    )
    assert list(dict.fromkeys(m["kernel"] for m in metrics)) == [
        "bitarray", "wordpack",
    ]
    for m in metrics:
        assert {
            "backend", "workers", "kernel", "compress_seconds",
            "compress_stage_seconds", "decompress_seconds",
            "reduce_seconds", "mean", "variance",
            "stream_identical", "reductions_identical",
        } <= set(m)
        assert set(m["compress_stage_seconds"]) == {"QZ", "LZ", "BF"}
    # The run's report carries the same metrics, cell for cell.
    assert [e["metrics"]["kernel"] for e in result.report["cells"]] == [
        m["kernel"] for m in metrics
    ]


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
    import json

    from repro.cli import main

    out = tmp_path / "report.json"
    rc = main(
        [
            "bench-bitpack", "--widths", "1,11", "--size", "4096",
            "--repeats", "1", "-o", str(out),
        ]
    )
    assert rc == 0
    assert f"[report -> {out}]" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION == 2
    assert doc["run"]["git_sha"]
    assert doc["run"]["table"] == "bitpack-kernels"
    assert doc["summary"]["all_ok"] is True
    metrics = [c["metrics"] for c in doc["cells"]]
    assert {m["size"] for m in metrics} == {4096}
    assert {m["width"] for m in metrics} == {1, 11}


@pytest.mark.parametrize(
    "argv", [["bench-bitpack"], ["bench-serve"], ["cluster", "bench"]]
)
def test_bench_commands_write_a_report_only_when_asked(argv):
    from repro.cli import build_parser

    assert build_parser().parse_args(argv).output is None


@pytest.mark.parametrize(
    ("table", "flag", "value"),
    [("perf-smoke", "--dataset", "Miranda"), ("table4", "--workers", "1,2")],
)
def test_experiment_run_rejects_a_flag_the_table_lacks(
    tmp_path, capsys, table, flag, value
):
    from repro.cli import main

    rc = main(["experiment", "run", table, flag, value, "--runs-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"run table {table!r} takes no {flag}" in err
    assert not any(tmp_path.iterdir())  # nothing ran
