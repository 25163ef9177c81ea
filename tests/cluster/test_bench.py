"""The cluster bench must report clean identity under concurrent load."""

from __future__ import annotations

import dataclasses
import json

from repro.harness.config import BenchConfig
from repro.harness.experiments import ExecutionContext, execute_cell, get_table


def run_cluster_cell(nodes, replicas, clients, requests, arrays, chunks, n_elements):
    """One ``cluster`` workload cell, executed as the engine would."""
    table = get_table(
        "cluster-scale",
        nodes=(nodes,),
        replicas=(replicas,),
        clients=(clients,),
        requests_per_client=requests,
        chunks=chunks,
        n_elements=n_elements,
    )
    table = dataclasses.replace(table, options={**table.options, "n_arrays": arrays})
    (cell,) = table.expand()
    cfg = BenchConfig()
    return execute_cell(cell, table, cfg, ExecutionContext(cfg))


def test_small_bench_cell_is_clean():
    metrics = run_cluster_cell(
        nodes=3, replicas=2, clients=3, requests=8, arrays=2, chunks=4,
        n_elements=6_000,
    )
    assert metrics["errors"] == []
    assert metrics["identity_failures"] == 0
    assert metrics["completed_requests"] == metrics["total_requests"] == 24
    assert metrics["throughput_rps"] > 0
    assert metrics["ok"] is True
    # Replicated writes actually spread over the fleet.
    writes = metrics["router_keyed_counters"]["shard_writes"]
    assert sum(writes.values()) >= 2 * 4 * 2  # chunks x replicas x arrays


def test_single_node_cell_degenerates_cleanly():
    metrics = run_cluster_cell(
        nodes=1,
        replicas=2,  # capped to the fleet size
        clients=2,
        requests=5,
        arrays=1,
        chunks=3,
        n_elements=4_000,
    )
    assert metrics["ok"] is True
    assert metrics["identity_failures"] == 0


def test_cluster_bench_cli_writes_the_ci_keys(tmp_path, capsys):
    """The keys the CI 3-node smoke asserts, on a 2-node miniature."""
    from repro.cli import main

    out = tmp_path / "report.json"
    rc = main(
        [
            "cluster", "bench", "--nodes", "2", "--replicas", "2",
            "--clients", "2", "--requests", "3", "--arrays", "2",
            "--n-elements", "4000", "-o", str(out),
        ]
    )
    assert rc == 0
    assert "0 identity failures" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["summary"]["all_ok"] is True
    doc = report["cells"][0]["metrics"]
    assert doc["ok"] is True
    assert doc["errors"] == []
    assert doc["identity_failures"] == 0
    assert doc["completed_requests"] == doc["total_requests"] == 6
    assert doc["nodes"] == 2 and doc["arrays"] == 2
