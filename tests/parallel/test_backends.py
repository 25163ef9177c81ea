"""Unit tests for the execution-backend interface, factory, and shm arena."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import stored_quantized
from repro.parallel.backends import (
    ArrayDescriptor,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ShmArena,
    ThreadBackend,
    attach_arrays,
    available_backends,
    get_backend,
)
from repro.parallel.kernels import reduce_moments_chunk
from repro.parallel.partition import even_ranges
from repro.runtime import lazy

# Chunk kernels live at module level so the process backend can pickle them.


def _mark_chunk(arrays, chunk):
    arrays["seen"][chunk["lo"] : chunk["hi"]] += 1
    return chunk["hi"] - chunk["lo"]


def _failing_kernel(arrays, chunk):
    raise RuntimeError("kernel failure")


def _calling_thread(arrays, chunk):
    return threading.get_ident()


def _worker_pid(arrays, chunk):
    return os.getpid()


def _ranges(n_items, n_parts):
    return [{"lo": lo, "hi": hi} for lo, hi in even_ranges(n_items, n_parts)]


class TestFactory:
    def test_available_names(self):
        assert available_backends() == ("serial", "threads", "processes")

    @pytest.mark.parametrize("name", ["serial", "threads", "processes"])
    def test_constructs_by_name(self, name):
        with get_backend(name, 2) as be:
            assert isinstance(be, ExecutionBackend)
            assert be.name == name
            assert be.n_workers == 2

    def test_instance_passthrough(self):
        be = SerialBackend(3)
        assert get_backend(be) is be

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("gpu")

    @pytest.mark.parametrize("cls", [SerialBackend, ThreadBackend, ProcessBackend])
    def test_rejects_nonpositive_workers(self, cls):
        with pytest.raises(ValueError, match="n_workers"):
            cls(0)


class TestRunKernel:
    @pytest.mark.parametrize("name", ["serial", "threads", "processes"])
    def test_results_in_chunk_order(self, name):
        q = np.arange(100, dtype=np.int64)
        chunks = _ranges(q.size, 4)
        with get_backend(name, 4) as be:
            run = be.run_kernel(reduce_moments_chunk, {"q": q}, chunks)
        assert run.results == [
            QuantizedMoments.of_values(q[c["lo"] : c["hi"]]) for c in chunks
        ]
        assert run.outputs == {}

    def test_out_specs_allocated_and_returned(self):
        def fill(arrays, chunk):
            arrays["out"][chunk["lo"] : chunk["hi"]] = chunk["lo"]
            return chunk["lo"]

        with get_backend("threads", 2) as be:
            run = be.run_kernel(
                fill,
                {},
                [{"lo": 0, "hi": 4}, {"lo": 4, "hi": 8}],
                out_specs={"out": ((8,), np.int64)},
            )
        assert run.outputs["out"].tolist() == [0, 0, 0, 0, 4, 4, 4, 4]

    @pytest.mark.parametrize("name", ["serial", "threads", "processes"])
    def test_chunks_cover_all_items(self, name):
        with get_backend(name, 3) as be:
            out_specs = {"seen": ((17,), np.int64)}
            run = be.run_kernel(_mark_chunk, {}, _ranges(17, 3), out_specs)
        assert sum(run.results) == 17
        assert run.outputs["seen"].tolist() == [1] * 17

    def test_thread_kernel_exception_propagates(self):
        with get_backend("threads", 2) as be:
            with pytest.raises(RuntimeError, match="kernel failure"):
                be.run_kernel(_failing_kernel, {}, _ranges(10, 2))

    def test_single_chunk_runs_inline(self):
        with get_backend("threads", 4) as be:
            run = be.run_kernel(_calling_thread, {}, [{"lo": 0, "hi": 10}])
            assert run.results == [threading.get_ident()]
            assert be._pool is None  # never spun up a pool

    def test_process_empty_run_never_spins_up_a_pool(self):
        # An all-constant stream submits no chunks: nothing to fork for.
        with ProcessBackend(2) as be:
            run = be.run_kernel(
                _mark_chunk, {}, [], out_specs={"seen": ((3,), np.int64)}
            )
            assert run.results == []
            assert run.outputs["seen"].tolist() == [0, 0, 0]
            assert be._pool is None

    def test_serial_partitions_like_parallel(self, codec, smooth_1d):
        # n_workers shapes the chunking even inline: a serial reduction runs
        # exactly the chunks a pooled one of the same width would.
        seen = []

        class Recording(SerialBackend):
            def run_kernel(self, kernel, arrays, chunks, out_specs=None):
                seen.append([(c["lo"], c["hi"]) for c in chunks])
                return super().run_kernel(kernel, arrays, chunks, out_specs)

        c = codec.compress(smooth_1d, 1e-3)
        lazy(c).mean(executor=Recording(4))
        assert seen == [even_ranges(stored_quantized(c).q.size, 4)]


class TestShmArena:
    def test_descriptor_nbytes(self):
        d = ArrayDescriptor("seg", 0, (3, 4), "<f8")
        assert d.nbytes == 96

    def test_roundtrip_views(self):
        a = np.arange(10, dtype=np.int32)
        b = np.linspace(0, 1, 7)
        with ShmArena({"a": a, "b": b}) as arena:
            np.testing.assert_array_equal(arena.view("a"), a)
            np.testing.assert_array_equal(arena.view("b"), b)
            # Same-process attach through descriptors sees the same bytes.
            views = attach_arrays(arena.descriptors)
            np.testing.assert_array_equal(views["a"], a)
            views["a"][0] = 99
            assert arena.view("a")[0] == 99

    def test_out_specs_zero_initialized(self):
        with ShmArena({}, out_specs={"out": ((5,), np.float64)}) as arena:
            assert arena.view("out").tolist() == [0.0] * 5

    def test_fetch_survives_destroy(self):
        arena = ShmArena({"a": np.ones(4)})
        copy = arena.fetch("a")
        arena.destroy()
        assert copy.tolist() == [1.0] * 4
        with pytest.raises(ValueError, match="destroyed"):
            arena.view("a")

    def test_destroy_idempotent(self):
        arena = ShmArena({"a": np.ones(2)})
        arena.destroy()
        arena.destroy()

    def test_output_name_collision(self):
        with pytest.raises(ValueError, match="collides"):
            ShmArena({"x": np.ones(2)}, out_specs={"x": ((2,), np.float64)})


class TestLifecycle:
    def test_thread_close_idempotent(self):
        be = ThreadBackend(2)
        be.run_kernel(_calling_thread, {}, _ranges(10, 2))
        be.close()
        be.close()

    def test_process_pool_is_warm(self):
        with get_backend("processes", 1) as be:
            pids = be.run_kernel(_worker_pid, {}, _ranges(3, 3)).results
            pids += be.run_kernel(_worker_pid, {}, _ranges(3, 3)).results
        assert len(set(pids)) == 1
        assert pids[0] != os.getpid()
