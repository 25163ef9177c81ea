"""Live-server integration tests: correctness, concurrency, backpressure,
deadlines, and malformed-input containment."""

from __future__ import annotations

import json
import struct
import threading

import pytest

from repro import SZOps, ops
from repro.core.format import SZOpsCompressed
from repro.service import (
    RemoteError,
    RequestTimedOut,
    ServerBusy,
    ServiceClient,
)
from repro.service.protocol import PROTOCOL_VERSION, Status

CHAIN = ["negation", "scalar_add=0.25", "scalar_multiply=1.5"]
CHAIN_PAIRS = [("negation", None), ("scalar_add", 0.25), ("scalar_multiply", 1.5)]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def test_put_get_roundtrip(client, blob):
    assert client.get("U") == blob
    assert client.get_container("U").to_bytes() == blob


def test_op_bit_identical_to_eager_apply_chain(client, compressed):
    eager = ops.apply_chain(compressed, CHAIN_PAIRS, fused=False)
    assert client.op("U", CHAIN) == eager.to_bytes()


def test_op_with_result_name_stores_stream(client, compressed):
    version = client.op("U", CHAIN, result_name="V")
    assert version == 1
    eager = ops.apply_chain(compressed, CHAIN_PAIRS, fused=False)
    assert client.get("V") == eager.to_bytes()


def test_reduce_matches_eager_values(client, compressed):
    for reduction in ("mean", "variance", "std", "minimum", "maximum"):
        expected = ops.apply_chain(compressed, [(reduction, None)], fused=False)
        assert client.reduce("U", reduction) == expected
    chained = ops.apply_chain(
        compressed, CHAIN_PAIRS + [("mean", None)], fused=False
    )
    assert client.reduce("U", "mean", chain=CHAIN) == chained


def test_reduce_never_decompresses(client, monkeypatch):
    """The decode spy: REDUCE must not materialize the decompressed array."""
    calls = []

    original = SZOps.decompress

    def spy(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SZOps, "decompress", spy)
    for reduction in ("mean", "variance", "std"):
        client.reduce("U", reduction)
        client.reduce("U", reduction, chain=["negation"])
    assert calls == []


def test_versioned_requests(client, blob):
    v2 = client.put("U", blob)
    assert v2 == 2
    assert client.get("U", version=1) == blob
    assert client.op("U", ["negation"], version=1) == client.op(
        "U", ["negation"], version=2
    )


def test_bad_chain_rejected(client):
    with pytest.raises(RemoteError, match="reduction"):
        client.op("U", ["mean"])  # reductions belong on REDUCE
    with pytest.raises(RemoteError):
        client.op("U", ["no_such_op"])
    with pytest.raises(RemoteError, match="at least one"):
        client.op("U", [])
    with pytest.raises(RemoteError, match="unknown reduction"):
        client.reduce("U", "median")


def test_unknown_array_and_version(client):
    with pytest.raises(RemoteError, match="unknown array"):
        client.get("nope")
    with pytest.raises(RemoteError, match="version 99"):
        client.get("U", version=99)


# ---------------------------------------------------------------------------
# health / stats (satellite: ops-facing fields)
# ---------------------------------------------------------------------------


def test_health_document_fields(client):
    doc = client.health()
    assert doc["status"] == "ok"
    assert doc["backend"] == "serial"
    assert doc["uptime_seconds"] > 0
    assert doc["arrays"] == 1
    assert doc["bytes_used"] > 0
    assert doc["byte_budget"] == 256 << 20
    assert doc["max_pending"] == 64
    assert doc["batching"] is True


def test_stats_document_shape(client, compressed):
    client.op("U", CHAIN)
    client.reduce("U", "mean")
    doc = client.stats()
    assert doc["server"]["status"] == "ok"
    assert doc["store"]["puts"] >= 1
    assert set(doc["endpoints"]) >= {"OP", "PUT", "REDUCE"}
    op_stats = doc["endpoints"]["OP"]
    assert op_stats["by_status"]["OK"] >= 1
    latency = op_stats["latency"]
    assert latency["count"] >= 1
    assert latency["p99_ms"] >= latency["p50_ms"] > 0
    assert "decoded_block_cache" in doc


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def test_concurrent_mixed_clients(live_server, blob, compressed):
    """N clients issuing mixed PUT/GET/OP/REDUCE concurrently, zero errors."""
    n_clients, per_client = 8, 12
    eager = ops.apply_chain(compressed, CHAIN_PAIRS, fused=False).to_bytes()
    expected_mean = ops.apply_chain(compressed, [("mean", None)], fused=False)
    errors: list[str] = []
    barrier = threading.Barrier(n_clients)

    def worker(idx: int) -> None:
        try:
            with ServiceClient(live_server.host, live_server.port) as c:
                barrier.wait()
                for j in range(per_client):
                    kind = (idx + j) % 4
                    if kind == 0:
                        c.put(f"w{idx}", blob)
                    elif kind == 1:
                        assert c.get("U") == blob
                    elif kind == 2:
                        assert c.op("U", CHAIN) == eager
                    else:
                        assert c.reduce("U", "mean") == expected_mean
        except BaseException as exc:
            errors.append(f"client {idx}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    with ServiceClient(live_server.host, live_server.port) as c:
        doc = c.stats()
        by_endpoint = doc["endpoints"]
        total_ok = sum(e["by_status"].get("OK", 0) for e in by_endpoint.values())
        assert total_ok >= n_clients * per_client


def test_batching_dedups_concurrent_identical_ops(server_factory, blob, compressed):
    """Concurrent identical OPs coalesce; replies stay bit-identical."""
    handle = server_factory(batch_window_s=0.01)
    with ServiceClient(handle.host, handle.port) as c:
        c.put("U", blob)
    eager = ops.apply_chain(compressed, CHAIN_PAIRS, fused=False).to_bytes()
    results: list[bytes] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)
    lock = threading.Lock()

    def worker() -> None:
        try:
            with ServiceClient(handle.host, handle.port) as c:
                barrier.wait()
                out = c.op("U", CHAIN)
            with lock:
                results.append(out)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == [eager] * 8
    with ServiceClient(handle.host, handle.port) as c:
        counters = c.stats()["counters"]
    assert counters.get("batch_dedup_hits", 0) >= 1


def test_lru_eviction_under_byte_pressure(server_factory, blob):
    handle = server_factory(byte_budget=2 * len(blob) + 1)
    with ServiceClient(handle.host, handle.port) as c:
        c.put("a", blob)
        c.put("b", blob)
        c.put("c", blob)  # evicts "a"
        with pytest.raises(RemoteError, match="evicted"):
            c.get("a")
        assert c.get("c") == blob
        assert c.health()["bytes_used"] <= 2 * len(blob) + 1


# ---------------------------------------------------------------------------
# deadlines and backpressure
# ---------------------------------------------------------------------------


def test_deadline_produces_timeout(server_factory, blob):
    handle = server_factory(debug_delay_s=0.5, batching=False)
    with ServiceClient(handle.host, handle.port) as c:
        c.put("U", blob)
        with pytest.raises(RequestTimedOut):
            c.op("U", CHAIN, deadline_ms=50)
        # The connection and server survive; a patient request succeeds.
        assert c.op("U", CHAIN, deadline_ms=5000)


def test_server_default_timeout(server_factory, blob):
    handle = server_factory(debug_delay_s=0.5, request_timeout_s=0.05, batching=False)
    with ServiceClient(handle.host, handle.port) as c:
        c.put("U", blob)
        with pytest.raises(RequestTimedOut):
            c.op("U", CHAIN)


def test_overload_sheds_busy(server_factory, blob):
    """Admission cap: excess concurrent requests get BUSY, then recovery."""
    handle = server_factory(debug_delay_s=0.3, max_pending=2, batching=False)
    with ServiceClient(handle.host, handle.port) as c:
        c.put("U", blob)
    outcomes: list[str] = []
    barrier = threading.Barrier(6)
    lock = threading.Lock()

    def worker() -> None:
        try:
            with ServiceClient(handle.host, handle.port) as c:
                barrier.wait()
                c.op("U", CHAIN)
            result = "ok"
        except ServerBusy:
            result = "busy"
        except BaseException as exc:
            result = f"error: {exc}"
        with lock:
            outcomes.append(result)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert set(outcomes) <= {"ok", "busy"}
    assert "busy" in outcomes  # 6 concurrent > max_pending=2 must shed
    assert "ok" in outcomes
    # After the burst the server serves normally again.
    with ServiceClient(handle.host, handle.port) as c:
        assert c.health()["status"] == "ok"
        assert c.op("U", CHAIN)


# ---------------------------------------------------------------------------
# malformed input (satellite: hardening)
# ---------------------------------------------------------------------------


def test_garbage_payload_gets_error_reply(live_server):
    with ServiceClient(live_server.host, live_server.port) as c:
        c.send_raw(struct.pack("<I", 5) + b"\xde\xad\xbe\xef\x01")
        reply = c.recv_reply()
        assert reply.status is Status.ERROR
        # Same connection still serves valid requests afterwards.
        assert c.health()["status"] == "ok"


def test_unknown_opcode_gets_error_reply(live_server):
    with ServiceClient(live_server.host, live_server.port) as c:
        payload = struct.pack("<BBI", PROTOCOL_VERSION, 99, 0)
        c.send_raw(struct.pack("<I", len(payload)) + payload)
        reply = c.recv_reply()
        assert reply.status is Status.ERROR
        assert "opcode" in reply.message


def test_oversized_frame_declaration_closes_connection(live_server):
    with ServiceClient(live_server.host, live_server.port) as c:
        c.send_raw(struct.pack("<I", (64 << 20) + 1))
        reply = c.recv_reply()
        assert reply.status is Status.ERROR
        # Byte sync is unrecoverable: the server closes this connection.
        with pytest.raises(ConnectionError):
            c.send_raw(b"\x00" * 4)
            c.recv_reply()
    # ...but keeps serving new ones.
    with ServiceClient(live_server.host, live_server.port) as c:
        assert c.health()["status"] == "ok"


def test_truncated_frame_then_disconnect_is_contained(live_server):
    with ServiceClient(live_server.host, live_server.port) as c:
        c.send_raw(struct.pack("<I", 100) + b"only-ten-b")  # 10 of 100 bytes
    # The abandoned connection must not wedge the accept loop.
    with ServiceClient(live_server.host, live_server.port) as c:
        assert c.health()["status"] == "ok"


def test_corrupt_container_put_rejected_server_survives(client, blob):
    corrupt = bytearray(blob)
    corrupt[:4] = b"XXXX"  # destroy the magic
    with pytest.raises(RemoteError):
        client.put("bad", bytes(corrupt))
    truncated = blob[: len(blob) // 2]
    with pytest.raises(RemoteError):
        client.put("bad", truncated)
    with pytest.raises(RemoteError):
        client.put("bad", b"\x00" * 64)
    assert client.health()["status"] == "ok"
    assert "bad" not in client.health() or client.health()["arrays"] == 1


def test_corrupt_fixture_streams_rejected(client):
    """The analysis suite's corrupt containers are refused at the door."""
    from pathlib import Path

    fixtures = Path(__file__).parent.parent / "analysis" / "fixtures"
    rejected = 0
    for path in sorted(fixtures.glob("*.bin")):
        if path.name.startswith("szp"):
            continue  # SZp payloads are not SZOps containers
        with pytest.raises(RemoteError):
            client.put("fixture", path.read_bytes())
        rejected += 1
    assert rejected >= 4
    assert client.health()["status"] == "ok"


def test_hostile_header_put_rejected_at_once(client):
    """2**40 declared elements over 461 bytes: VS001, not a huge allocation."""
    from pathlib import Path

    fixture = Path(__file__).parent.parent / "analysis" / "fixtures" / "huge_header.bin"
    with pytest.raises(RemoteError, match="VS001"):
        client.put("huge", fixture.read_bytes())
    assert client.health()["status"] == "ok"


def test_internal_error_contained(live_server, monkeypatch, blob):
    """A bug in a kernel surfaces as ERROR, not a dead server."""
    import repro.service.server as server_mod

    def boom(*args, **kwargs):
        raise AttributeError("injected kernel bug")

    monkeypatch.setattr(server_mod, "_materialize_chain", boom)
    with ServiceClient(live_server.host, live_server.port) as c:
        with pytest.raises(RemoteError, match="internal error"):
            c.op("U", CHAIN)
        assert c.health()["status"] == "ok"
    monkeypatch.undo()
    with ServiceClient(live_server.host, live_server.port) as c:
        assert c.op("U", CHAIN)


def test_blob_fixture_is_wire_stable(blob):
    """The module fixture itself parses (guards the other tests' premise)."""
    c = SZOpsCompressed.from_bytes(blob)
    assert c.to_bytes() == blob
    assert json.loads(json.dumps({"fp": c.content_fingerprint()}))
