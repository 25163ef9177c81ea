"""Engine orchestration tests: artifacts, resume, and the cross-run index.

These drive :func:`run_experiment` with an injected ``execute`` stub so
the resume/skip/persist logic is exercised without real kernels.  The
real-workload path is covered by ``test_experiment_acceptance.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.config import BenchConfig
from repro.harness.experiments import (
    ARTIFACT_SCHEMA_VERSION,
    ExperimentIndexError,
    RunDir,
    RunTable,
    get_cells,
    get_run,
    latest_run_id,
    list_runs,
    open_index,
    render_report_json,
    report_from_index,
    run_experiment,
)

CFG = BenchConfig(scale=0.1)


def small_table(repeats: int = 1) -> RunTable:
    return RunTable(
        name="stub-table",
        workload="pipeline",
        factors={"backend": ("serial", "threads"), "workers": (1, 2)},
        repeats=repeats,
    )


def stub_execute(cell, table, cfg, ctx):
    return {
        "backend": cell.factors["backend"],
        "workers": cell.factors["workers"],
        "compress_seconds_reps": [0.01, 0.02],
        "compress_throughput_mbs": 100.0,
        "ok": True,
    }


def test_run_writes_full_artifact_layout(tmp_path):
    table = small_table()
    result = run_experiment(table, CFG, tmp_path, execute=stub_execute)
    assert result.executed == 4 and result.resumed == 0
    assert result.all_ok

    run_dir = result.run_dir
    assert (run_dir / "manifest.json").is_file()
    assert (run_dir / "environment.json").is_file()
    assert (run_dir / "report.json").is_file()
    assert (run_dir / "report.md").is_file()
    cell_files = sorted((run_dir / "cells").glob("*.json"))
    assert len(cell_files) == 4

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert manifest["config_hash"] == table.config_hash(CFG)
    assert manifest["n_cells"] == 4
    assert manifest["git_sha"]
    assert manifest["host"]["cpu_count"] >= 1


def test_fresh_runs_never_collide(tmp_path):
    a = run_experiment(small_table(), CFG, tmp_path, execute=stub_execute)
    b = run_experiment(small_table(), CFG, tmp_path, execute=stub_execute)
    assert a.run_id != b.run_id
    assert b.executed == 4 and b.resumed == 0


def test_resume_skips_exactly_the_completed_cells(tmp_path):
    table = small_table()
    crash_after = 2
    calls = []

    def crashing_execute(cell, *a):
        if len(calls) == crash_after:
            raise RuntimeError("simulated crash")
        calls.append(cell.cell_id)
        return stub_execute(cell, *a)

    with pytest.raises(RuntimeError, match="simulated crash"):
        run_experiment(table, CFG, tmp_path, execute=crashing_execute)

    run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
    completed_before = set(RunDir(run_dir).completed_cells())
    assert completed_before == set(calls) and len(calls) == crash_after

    executed_on_resume = []

    def resuming_execute(cell, *a):
        executed_on_resume.append(cell.cell_id)
        return stub_execute(cell, *a)

    result = run_experiment(
        table, CFG, tmp_path, resume=run_dir, execute=resuming_execute
    )
    assert result.resumed == crash_after
    assert result.executed == table.n_cells - crash_after
    # exactly the incomplete cells ran, nothing was re-measured
    assert set(executed_on_resume).isdisjoint(completed_before)
    all_ids = {c.cell_id for c in table.expand()}
    assert set(executed_on_resume) | completed_before == all_ids
    assert result.all_ok


def test_resume_tolerates_torn_cell_writes(tmp_path):
    table = small_table()
    first = run_experiment(table, CFG, tmp_path, execute=stub_execute)
    victim = sorted((first.run_dir / "cells").glob("*.json"))[0]
    victim.write_text('{"cell_id": "tr')  # torn mid-write

    result = run_experiment(
        table, CFG, tmp_path, resume=first.run_dir, execute=stub_execute
    )
    assert result.resumed == table.n_cells - 1
    assert result.executed == 1


def test_resume_rejects_mismatched_config(tmp_path):
    first = run_experiment(small_table(), CFG, tmp_path, execute=stub_execute)
    other_cfg = BenchConfig(scale=0.5)
    with pytest.raises(ValueError, match="config hash"):
        run_experiment(
            small_table(), other_cfg, tmp_path,
            resume=first.run_dir, execute=stub_execute,
        )


def test_run_appends_to_index_and_reads_back(tmp_path):
    table = small_table()
    index_path = tmp_path / "experiments.db"
    result = run_experiment(
        table, CFG, tmp_path / "runs", index_path=index_path,
        execute=stub_execute,
    )

    conn = open_index(index_path)
    try:
        runs = list_runs(conn)
        assert [r["run_id"] for r in runs] == [result.run_id]
        run = get_run(conn, result.run_id)
        assert run["table_name"] == "stub-table"
        assert run["workload"] == "pipeline"
        assert run["config_hash"] == table.config_hash(CFG)
        assert latest_run_id(conn, "stub-table") == result.run_id

        cells = get_cells(conn, result.run_id)
        assert len(cells) == 4
        assert [c["cell_index"] for c in cells] == [0, 1, 2, 3]
        assert {c["cell_id"] for c in cells} == {
            c.cell_id for c in table.expand()
        }
        assert all(c["ok"] for c in cells)
        assert cells[0]["metrics"]["compress_throughput_mbs"] == 100.0
    finally:
        conn.close()


def test_index_get_run_names_known_runs_on_miss(tmp_path):
    index_path = tmp_path / "experiments.db"
    result = run_experiment(
        small_table(), CFG, tmp_path / "runs", index_path=index_path,
        execute=stub_execute,
    )
    conn = open_index(index_path)
    try:
        with pytest.raises(ExperimentIndexError, match=result.run_id):
            get_run(conn, "no-such-run")
    finally:
        conn.close()


def test_failed_cell_fails_the_run_but_still_persists(tmp_path):
    def failing_execute(cell, table, cfg, ctx):
        metrics = stub_execute(cell, table, cfg, ctx)
        if cell.index == 1:
            metrics["ok"] = False
        return metrics

    result = run_experiment(
        small_table(), CFG, tmp_path, execute=failing_execute
    )
    assert not result.all_ok
    assert [c["ok"] for c in result.cells] == [True, False, True, True]
    assert result.report["summary"]["n_ok"] == 3
    assert result.report["summary"]["all_ok"] is False


def test_report_carries_cell_metrics_and_matches_the_index(tmp_path):
    def nested_execute(cell, table, cfg, ctx):
        metrics = stub_execute(cell, table, cfg, ctx)
        metrics["service"] = {"throughput_rps": 1 / 3, "errors": []}
        return metrics

    index_path = tmp_path / "experiments.db"
    result = run_experiment(
        small_table(), CFG, tmp_path / "runs", index_path=index_path,
        execute=nested_execute,
    )
    on_disk = json.loads((result.run_dir / "report.json").read_text())
    entry = on_disk["cells"][0]
    assert entry["metrics"]["compress_throughput_mbs"] == 100.0
    assert entry["metrics"]["backend"] == entry["factors"]["backend"]
    # Only the report rounds; the per-cell artifact keeps the exact value.
    assert entry["metrics"]["service"]["throughput_rps"] == 0.333333333
    assert result.cells[0]["metrics"]["service"]["throughput_rps"] == 1 / 3

    conn = open_index(index_path)
    try:
        indexed, _ = report_from_index(conn, result.run_id)
    finally:
        conn.close()
    assert render_report_json(indexed) == render_report_json(result.report)
