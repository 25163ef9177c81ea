"""Memo-hit reductions are answered on the event loop, the rest on the pool.

A node (a :class:`ClusterNode` is the full single-node server plus
PREDUCE) answers a REDUCE or PREDUCE whose exact moments are already
memoised on the stored container without a kernel-pool hop.  Everything
that would decode or transform bins still goes to the pool.  These tests
count ``pool.submit`` calls, decode calls and the threads decodes run on,
and compare every reply with the local (pool-free) computation.
"""

from __future__ import annotations

import threading

import pytest

from repro import lazy
from repro.cluster import ClusterNode, NodeConfig
from repro.core.ops import _partial
from repro.core.ops._partial import decode_stored_blocks
from repro.runtime import cache as cache_module
from repro.runtime import cache_stats, clear_cache, configure
from repro.service import ServiceClient, ThreadedServer
from repro.service.client import RemoteError

LOOP_THREAD = "repro-service-loop"
AFFINE = ["negation", "scalar_add=0.5"]
REDUCTIONS = ("mean", "variance", "std", "minimum", "maximum")


@pytest.fixture
def node_factory(compressed):
    """Start nodes holding ``U``; returns (client, submit log) per node."""
    handles: list[ThreadedServer] = []
    clients: list[ServiceClient] = []

    def start(**overrides):
        node = ClusterNode(NodeConfig(**overrides))
        submits: list[str] = []
        real_submit = node.pool.submit

        def spy(fn, *args, **kwargs):
            submits.append(getattr(fn, "__qualname__", repr(fn)))
            return real_submit(fn, *args, **kwargs)

        node.pool.submit = spy  # type: ignore[method-assign]
        handle = ThreadedServer(server=node).start()
        handles.append(handle)
        client = ServiceClient(handle.host, handle.port)
        clients.append(client)
        client.put("U", compressed.to_bytes())
        submits.clear()
        return client, submits

    yield start
    for client in clients:
        client.close()
    for handle in handles:
        handle.stop()


@pytest.fixture
def decodes(monkeypatch):
    """Names of the threads every decode of the test runs on."""
    threads: list[str] = []

    def counted(c):
        threads.append(threading.current_thread().name)
        return decode_stored_blocks(c)

    monkeypatch.setattr(cache_module, "decode_stored_blocks", counted)
    monkeypatch.setattr(_partial, "decode_stored_blocks", counted)
    return threads


def local_chain(compressed, chain):
    fused = lazy(compressed)
    for step in chain:
        name, _, scalar = step.partition("=")
        fused = fused.apply(name, float(scalar) if scalar else None)
    return fused


@pytest.mark.parametrize("chain", [[], AFFINE], ids=["plain", "negate-add"])
def test_memo_hits_never_touch_the_pool(node_factory, compressed, chain):
    client, submits = node_factory()
    client.preduce("U", chain=chain)  # the cold one computes the memo
    submits.clear()
    want = local_chain(compressed, chain)
    stats = cache_stats()
    lookups = stats.lookups
    got = client.preduce("U", chain=chain)
    values = {r: client.reduce("U", r, chain=chain) for r in REDUCTIONS}
    assert submits == []
    assert stats.lookups == lookups + 6  # one lookup per reduction
    assert got.moments == want.quantized_moments()
    assert got.eps == compressed.eps
    assert values == {r: getattr(want, r)() for r in REDUCTIONS}


@pytest.mark.parametrize("endpoint", ["preduce", "reduce"])
def test_cold_reduction_decodes_once_on_the_pool(node_factory, compressed, decodes, endpoint):
    client, submits = node_factory()
    fused = local_chain(compressed, AFFINE)
    want = fused.quantized_moments() if endpoint == "preduce" else fused.variance()
    clear_cache()
    decodes.clear()
    stats = cache_stats()
    lookups = stats.lookups
    if endpoint == "preduce":
        got = client.preduce("U", chain=AFFINE).moments
    else:
        got = client.reduce("U", "variance", chain=AFFINE)
    assert got == want
    assert len(decodes) == 1 and decodes[0] != LOOP_THREAD
    assert stats.lookups == lookups + 1
    assert len(submits) == 1
    # the decode left a memo: the next reduction is a loop-side field read
    if endpoint == "preduce":
        client.reduce("U", "mean")
    else:
        client.preduce("U")
    assert len(decodes) == 1 and len(submits) == 1


def _pool_counts(client, submits, chain=()):
    submits.clear()
    moments = client.preduce("U", chain=chain).moments
    after_preduce = len(submits)
    value = client.reduce("U", "mean", chain=chain)
    return moments, value, after_preduce, len(submits) - after_preduce


@pytest.mark.parametrize(
    "overrides", [{"n_workers": 2}, {"debug_delay_s": 0.001}], ids=["n_workers=2", "debug-delay"]
)
def test_configured_nodes_keep_the_pool(node_factory, compressed, overrides):
    client, submits = node_factory(**overrides)
    client.preduce("U")  # memoise first: these nodes still use the pool
    moments, value, preduce_jobs, reduce_jobs = _pool_counts(client, submits)
    assert preduce_jobs == 1 and reduce_jobs == 1
    assert moments == local_chain(compressed, []).quantized_moments()
    assert value == local_chain(compressed, []).mean()


def test_multiply_chain_keeps_the_pool(node_factory, compressed):
    client, submits = node_factory()
    chain = ["negation", "scalar_multiply=2", "scalar_add=1"]
    client.preduce("U", chain=chain)
    moments, value, preduce_jobs, reduce_jobs = _pool_counts(client, submits, chain)
    assert preduce_jobs == 1 and reduce_jobs == 1
    want = local_chain(compressed, chain)
    assert moments == want.quantized_moments() and value == want.mean()


def test_disabled_cache_keeps_the_pool(node_factory, compressed, monkeypatch, decodes):
    monkeypatch.setattr(cache_module, "_default_cache", cache_module._default_cache)
    configure(enabled=False)  # undone by monkeypatch at teardown
    client, submits = node_factory()
    moments, value, preduce_jobs, reduce_jobs = _pool_counts(client, submits, AFFINE)
    assert preduce_jobs == 1 and reduce_jobs == 1
    assert LOOP_THREAD not in decodes and len(decodes) == 2
    want = local_chain(compressed, AFFINE)
    assert moments == want.quantized_moments() and value == want.mean()


@pytest.mark.parametrize("endpoint", ["preduce", "reduce"])
def test_inline_error_matches_the_pool_error(node_factory, endpoint):
    """A shift the quantized range cannot hold fails alike on both paths."""
    chain = ["scalar_add=1e16"]  # 5e18 bins at eps 1e-3: past 2^62
    messages, jobs = [], []
    for overrides in ({}, {"debug_delay_s": 0.001}):
        client, submits = node_factory(**overrides)
        client.preduce("U")  # memoise the base moments
        submits.clear()
        with pytest.raises(RemoteError) as err:
            if endpoint == "preduce":
                client.preduce("U", chain=chain)
            else:
                client.reduce("U", "mean", chain=chain)
        messages.append(str(err.value))
        jobs.append(len(submits))
    assert jobs == [0, 1]
    assert messages[0] == messages[1]
    assert "overflows the quantized integer range" in messages[0]
