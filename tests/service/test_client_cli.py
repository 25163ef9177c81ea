"""Client surface and CLI entry points: async client, bench-serve JSON."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import ops
from repro.service import AsyncServiceClient
from repro.service.client import steps_from_chain
from repro.service.protocol import Step

CHAIN_PAIRS = [("negation", None), ("scalar_add", 0.25), ("scalar_multiply", 1.5)]


def test_steps_from_chain_accepts_all_spellings():
    steps = steps_from_chain(
        ["negation", "scalar_add=0.25", ("scalar_multiply", 1.5), Step("negation")]
    )
    assert steps == (
        Step("negation"),
        Step("scalar_add", 0.25),
        Step("scalar_multiply", 1.5),
        Step("negation"),
    )


def test_async_client_full_surface(live_server, blob, compressed):
    eager = ops.apply_chain(compressed, CHAIN_PAIRS, fused=False).to_bytes()
    expected_mean = ops.apply_chain(compressed, [("mean", None)], fused=False)

    async def scenario():
        async with await AsyncServiceClient.connect(
            live_server.host, live_server.port
        ) as client:
            version = await client.put("A", blob)
            assert version == 1
            assert await client.get("A") == blob
            out = await client.op(
                "A", ["negation", "scalar_add=0.25", "scalar_multiply=1.5"]
            )
            assert out == eager
            assert await client.reduce("A", "mean") == expected_mean
            health = await client.health()
            assert health["status"] == "ok"
            stats = await client.stats()
            assert stats["server"]["status"] == "ok"

    asyncio.run(scenario())


def test_async_clients_interleave_on_one_loop(live_server, blob):
    """Many async clients sharing a loop all make progress concurrently."""

    async def one_client(i: int) -> float:
        async with await AsyncServiceClient.connect(
            live_server.host, live_server.port
        ) as client:
            await client.put(f"async{i}", blob)
            return await client.reduce(f"async{i}", "mean")

    async def scenario():
        return await asyncio.gather(*(one_client(i) for i in range(6)))

    values = asyncio.run(scenario())
    assert len(set(values)) == 1  # same blob -> same mean everywhere


@pytest.mark.slow
def test_bench_serve_writes_wellformed_json(tmp_path, capsys):
    """A miniature bench-serve run through the real CLI entry point."""
    from repro.cli import main

    out = tmp_path / "report.json"
    rc = main(
        [
            "bench-serve",
            "--scale",
            "0.1",
            "--clients",
            "4",
            "--requests",
            "5",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "speedup" in printed
    report = json.loads(out.read_text())
    assert report["summary"]["all_ok"] is True
    doc = report["cells"][0]["metrics"]
    assert doc["experiment"] == "service_batching"
    assert doc["chain_depth"] == 3
    assert doc["total_errors"] == 0
    assert doc["bit_identical_to_eager"] is True
    for label in ("batched", "unbatched"):
        v = doc[label]
        assert v["completed_requests"] == v["total_requests"] == 20
        assert v["latency_p99_ms"] >= v["latency_p50_ms"] > 0
        assert v["throughput_rps"] > 0
    assert doc["batched"]["server_stats"]["batches"] >= 1
    red = doc["reduce_vs_decompress"]
    assert red["values_close"] is True
    assert red["compressed_domain_seconds"] > 0


def test_run_service_bench_returns_payload_directly():
    """The ``service`` workload's cell metrics, straight from the executor."""
    from repro.harness.config import BenchConfig
    from repro.harness.experiments import ExecutionContext, execute_cell, get_table

    cfg = BenchConfig(scale=0.05)
    table = get_table("service-batching", clients=2, requests_per_client=2)
    (cell,) = table.expand()
    payload = execute_cell(cell, table, cfg, ExecutionContext(cfg))
    assert payload["total_errors"] == 0
    assert payload["bit_identical_to_eager"] is True
    assert payload["batched"]["completed_requests"] == 4
