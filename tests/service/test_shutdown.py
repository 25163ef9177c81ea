"""Graceful shutdown: SIGTERM mid-request drains before exit."""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceConfig, ThreadedServer

CHAIN = ["negation", "scalar_add=0.25", "scalar_multiply=1.5"]


def _spawn_server(*extra_args: str) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on an ephemeral port; return (proc, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        pytest.fail(f"server did not announce its port: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    return proc, port


def test_sigterm_mid_request_drains_then_exits_cleanly(blob):
    """SIGTERM while a slow OP is in flight: the reply still arrives."""
    proc, port = _spawn_server("--debug-delay-s", "0.4")
    try:
        with ServiceClient("127.0.0.1", port) as client:
            client.put("U", blob)
            result: dict = {}

            def slow_op() -> None:
                try:
                    result["blob"] = client.op("U", CHAIN)
                except BaseException as exc:
                    result["error"] = exc

            worker = threading.Thread(target=slow_op)
            worker.start()
            time.sleep(0.15)  # the op is now inside its 0.4 s kernel delay
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=10)
            assert not worker.is_alive(), "in-flight op never completed"
            assert "error" not in result, f"drain dropped the op: {result.get('error')}"
            assert result["blob"], "empty reply after drain"
        proc.wait(timeout=10)
        assert proc.returncode == 0
        out = proc.stdout.read()
        assert "draining" in out and "stopped" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_sigint_idle_exits_cleanly():
    proc, port = _spawn_server()
    try:
        with ServiceClient("127.0.0.1", port) as client:
            assert client.health()["status"] == "ok"
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_threaded_server_stop_reports_draining_health(blob):
    """In-process shutdown: the identity flips to 'draining' during drain."""
    handle = ThreadedServer(ServiceConfig(debug_delay_s=0.3, batching=False))
    handle.start()
    try:
        with ServiceClient(handle.host, handle.port) as client:
            client.put("U", blob)
            result: dict = {}

            def slow_op() -> None:
                try:
                    result["blob"] = client.op("U", CHAIN)
                except BaseException as exc:
                    result["error"] = exc

            worker = threading.Thread(target=slow_op)
            worker.start()
            time.sleep(0.1)
            handle.stop()  # graceful: waits for the in-flight op
            worker.join(timeout=10)
            assert "error" not in result
            assert result["blob"]
    finally:
        handle.stop()


def test_new_connections_refused_after_drain(blob):
    handle = ThreadedServer(ServiceConfig())
    handle.start()
    with ServiceClient(handle.host, handle.port) as client:
        client.put("U", blob)
    handle.stop()
    with pytest.raises(OSError):
        ServiceClient(handle.host, handle.port, timeout_s=1.0)


def test_idle_connection_across_stop_leaves_no_unraisable():
    """A client idling on an open connection while the server stops.

    Its handler is parked in ``readexactly``; shutdown must cancel and await
    it, not leave it pending on a closed loop, where collecting it raises
    inside the coroutine's ``finally`` ("Exception ignored in ...").
    """
    seen: list = []
    previous = sys.unraisablehook
    sys.unraisablehook = seen.append
    try:
        handle = ThreadedServer(ServiceConfig()).start()
        client = ServiceClient(handle.host, handle.port)
        try:
            assert client.health()["status"] == "ok"  # handler is now parked
            handle.stop()
            assert not handle.server._connections
        finally:
            client.close()
        del handle  # the last reference to the loop and its tasks
        gc.collect()
    finally:
        sys.unraisablehook = previous
    assert not seen, [str(u.exc_value) for u in seen]
