"""Micro-batcher unit tests: dedup, grouping, isolation, flush."""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import lazy
from repro.core.ops._partial import decode_stored_blocks
from repro.runtime import cache as cache_module
from repro.runtime import clear_cache
from repro.service.batching import MicroBatcher
from repro.service.telemetry import Telemetry


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


def test_single_flight_dedup(pool):
    """N concurrent submits with one key -> exactly one compute call."""
    calls = []
    lock = threading.Lock()

    def compute():
        with lock:
            calls.append(1)
        return "result"

    async def scenario():
        telemetry = Telemetry()
        batcher = MicroBatcher(pool, window_s=0.005, telemetry=telemetry)
        results = await asyncio.gather(
            *(batcher.submit(("fp", "op"), "fp", compute) for _ in range(16))
        )
        return results, telemetry

    results, telemetry = run(scenario())
    assert results == ["result"] * 16
    assert len(calls) == 1
    assert telemetry.counter("batch_dedup_hits") == 15
    assert telemetry.counter("batched_requests") == 16


def test_distinct_keys_all_computed(pool):
    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.005)
        return await asyncio.gather(
            *(batcher.submit(("fp", f"op{i}"), "fp", lambda i=i: i * i) for i in range(8))
        )

    assert run(scenario()) == [i * i for i in range(8)]


def test_same_group_runs_in_one_executor_job(pool):
    """Flights sharing a group execute back to back on one worker thread."""
    threads: list[str] = []
    lock = threading.Lock()

    def make_compute(i):
        def compute():
            with lock:
                threads.append(threading.current_thread().name)
            return i

        return compute

    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.01)
        return await asyncio.gather(
            *(batcher.submit(("fp", f"c{i}"), "fp", make_compute(i)) for i in range(6))
        )

    assert run(scenario()) == list(range(6))
    assert len(set(threads)) == 1  # one group -> one pool job


def test_exception_isolated_to_its_flight(pool):
    def boom():
        raise RuntimeError("kernel exploded")

    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.005)
        ok_task = asyncio.ensure_future(batcher.submit(("fp", "good"), "fp", lambda: 42))
        bad_task = asyncio.ensure_future(batcher.submit(("fp", "bad"), "fp", boom))
        ok = await ok_task
        with pytest.raises(RuntimeError, match="kernel exploded"):
            await bad_task
        return ok

    assert run(scenario()) == 42


def test_dedup_riders_share_the_failure(pool):
    def boom():
        raise ValueError("shared failure")

    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.005)
        tasks = [
            asyncio.ensure_future(batcher.submit(("fp", "bad"), "fp", boom))
            for _ in range(3)
        ]
        failures = 0
        for task in tasks:
            with pytest.raises(ValueError, match="shared failure"):
                await task
            failures += 1
        return failures

    assert run(scenario()) == 3


def test_zero_window_still_works(pool):
    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.0)
        return await asyncio.gather(
            *(batcher.submit(("fp", f"k{i}"), "fp", lambda i=i: i) for i in range(4))
        )

    assert run(scenario()) == [0, 1, 2, 3]


def test_max_batch_rolls_excess_to_next_batch(pool):
    telemetry = Telemetry()

    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.002, max_batch=4, telemetry=telemetry)
        return await asyncio.gather(
            *(batcher.submit(("fp", f"k{i}"), "fp", lambda i=i: i) for i in range(10))
        )

    assert run(scenario()) == list(range(10))
    assert telemetry.counter("batches") >= 3  # 10 flights / cap 4
    assert telemetry.counter("batched_flights") == 10


def test_flush_drains_everything_queued(pool):
    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.05)  # long window
        tasks = [
            asyncio.ensure_future(batcher.submit(("fp", f"k{i}"), "fp", lambda i=i: i))
            for i in range(4)
        ]
        await asyncio.sleep(0)  # let submits queue
        await batcher.flush()
        assert batcher.pending == 0
        # flush resolved every flight future; the riders just need a loop
        # turn to observe it (gather will not wait on the 50 ms window).
        return await asyncio.wait_for(asyncio.gather(*tasks), timeout=1.0)

    assert run(scenario()) == [0, 1, 2, 3]


def test_constructor_validation(pool):
    with pytest.raises(ValueError, match="non-negative"):
        MicroBatcher(pool, window_s=-0.1)
    with pytest.raises(ValueError, match="positive"):
        MicroBatcher(pool, max_batch=0)


def test_sequential_submits_reuse_drain_cycle(pool):
    """Submits arriving after a drain start a fresh window (no lost flights)."""

    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.001)
        first = await batcher.submit(("fp", "a"), "fp", lambda: "a")
        second = await batcher.submit(("fp", "b"), "fp", lambda: "b")
        return first, second

    assert run(scenario()) == ("a", "b")


def test_resubmit_after_flight_resolved_starts_a_new_flight(pool):
    """A finished flight takes no riders, even while its batch still runs.

    Two groups drain in one batch; the slow one holds the batch open after
    the fast one resolved.  Resubmitting the fast key then must compute
    again rather than count as a dedup hit on the finished flight.
    """
    release = threading.Event()
    fast_calls = []

    def slow():
        release.wait(timeout=10)
        return "slow"

    def fast():
        fast_calls.append(1)
        return "fast"

    async def scenario():
        telemetry = Telemetry()
        batcher = MicroBatcher(pool, window_s=0.005, telemetry=telemetry)
        slow_task = asyncio.ensure_future(batcher.submit(("a", "op"), "a", slow))
        first = await batcher.submit(("b", "op"), "b", fast)
        assert not slow_task.done()
        second_task = asyncio.ensure_future(batcher.submit(("b", "op"), "b", fast))
        await asyncio.sleep(0)  # the resubmission registers its flight
        release.set()
        results = (first, await second_task, await slow_task)
        await batcher.flush()
        return results, telemetry

    results, telemetry = run(scenario())
    assert results == ("fast", "fast", "slow")
    assert len(fast_calls) == 2
    assert telemetry.counter("batch_dedup_hits") == 0


def test_lone_submit_does_not_wait_the_window(pool):
    """An idle batcher drains a lone request at the next loop turn."""

    async def scenario():
        batcher = MicroBatcher(pool, window_s=10.0)
        t0 = time.perf_counter()
        result = await asyncio.wait_for(
            batcher.submit(("fp", "op"), "fp", lambda: "done"), timeout=5.0
        )
        return result, time.perf_counter() - t0

    result, elapsed = run(scenario())
    assert result == "done"
    assert elapsed < 1.0


def test_submits_behind_an_executing_flight_share_one_batch(pool):
    """While a flight executes, distinct keys on one array still group."""
    started = threading.Event()
    release = threading.Event()
    threads: dict[str, str] = {}

    def held():
        started.set()
        release.wait(timeout=10)
        return "held"

    def make_compute(i):
        def compute():
            threads[f"c{i}"] = threading.current_thread().name
            return i

        return compute

    async def scenario():
        telemetry = Telemetry()
        batcher = MicroBatcher(pool, window_s=0.005, telemetry=telemetry)
        held_task = asyncio.ensure_future(batcher.submit(("fp", "held"), "fp", held))
        for _ in range(5000):
            if started.is_set():
                break
            await asyncio.sleep(0.001)
        assert started.is_set()
        tasks = []
        for i in range(4):  # one submit per loop turn
            tasks.append(
                asyncio.ensure_future(batcher.submit(("fp", f"c{i}"), "fp", make_compute(i)))
            )
            await asyncio.sleep(0)
        assert batcher.pending == 4
        release.set()
        results = await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
        assert await asyncio.wait_for(held_task, timeout=5.0) == "held"
        return results, telemetry

    results, telemetry = run(scenario())
    assert results == [0, 1, 2, 3]
    assert len(set(threads.values())) == 1  # one batch -> one pool job
    assert telemetry.counter("batches") == 2
    assert telemetry.counter("batched_flights") == 5


def test_request_completes_while_an_unrelated_flight_executes(pool):
    """A drain does not wait for another array's job, nor for its window.

    The lone request on ``b`` must neither queue behind the held flight on
    ``a`` (head-of-line blocking) nor wait the (10 s) window for company.
    """
    started = threading.Event()
    release = threading.Event()

    def held():
        started.set()
        release.wait(timeout=10)
        return "held"

    async def scenario():
        batcher = MicroBatcher(pool, window_s=10.0)
        held_task = asyncio.ensure_future(batcher.submit(("a", "op"), "a", held))
        for _ in range(5000):
            if started.is_set():
                break
            await asyncio.sleep(0.001)
        assert started.is_set()
        try:
            other = await asyncio.wait_for(
                batcher.submit(("b", "op"), "b", lambda: "b"), timeout=2.0
            )
            assert not held_task.done()
        finally:
            release.set()
        assert await asyncio.wait_for(held_task, timeout=5.0) == "held"
        await batcher.flush()
        return other

    assert run(scenario()) == "b"


def test_flight_behind_a_cold_decode_on_its_array_decodes_nothing(
    pool, compressed, monkeypatch
):
    """Flights on one array run one after another, so one decode serves both.

    The first flight's cold decode is held; a distinct chain on the same
    array submitted meanwhile stays queued until that job finishes, then
    finds the bins cached.
    """
    started = threading.Event()
    release = threading.Event()
    decodes: list[int] = []

    def held_decode(c):
        decodes.append(1)
        if len(decodes) == 1:
            started.set()
            release.wait(timeout=10)
        return decode_stored_blocks(c)

    def mean_times(factor):
        return lambda: lazy(compressed).scalar_multiply(factor).mean()

    async def scenario():
        batcher = MicroBatcher(pool, window_s=0.005)
        first = asyncio.ensure_future(batcher.submit(("U", "x2"), "U", mean_times(2.0)))
        for _ in range(5000):
            if started.is_set():
                break
            await asyncio.sleep(0.001)
        assert started.is_set()
        try:
            second = asyncio.ensure_future(
                batcher.submit(("U", "x3"), "U", mean_times(3.0))
            )
            await asyncio.sleep(0.05)  # ample time to drain, were it allowed to
            assert batcher.pending == 1
            assert not second.done()
        finally:
            release.set()
        results = await asyncio.wait_for(asyncio.gather(first, second), timeout=5.0)
        await batcher.flush()
        return results

    clear_cache()
    monkeypatch.setattr(cache_module, "decode_stored_blocks", held_decode)
    results = run(scenario())
    monkeypatch.undo()
    assert len(decodes) == 1
    assert results == [
        lazy(compressed).scalar_multiply(2.0).mean(),
        lazy(compressed).scalar_multiply(3.0).mean(),
    ]
