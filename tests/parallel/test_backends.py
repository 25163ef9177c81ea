"""Unit tests for the execution-backend interface, factory, and shm arena."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.moments import QuantizedMoments
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


def double_range(lo: int, hi: int) -> int:
    # Module level so the process backend can pickle it.
    return 2 * (hi - lo)


def square(x: int) -> int:
    return x * x


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
    @pytest.mark.parametrize("name", ["serial", "threads"])
    def test_results_in_chunk_order(self, name):
        q = np.arange(100, dtype=np.int64)
        chunks = [{"lo": lo, "hi": hi} for lo, hi in even_ranges(q.size, 4)]
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

    def test_map_ranges_and_items(self):
        for name in ("serial", "threads", "processes"):
            with get_backend(name, 2) as be:
                assert sum(be.map_ranges(double_range, 11)) == 22
                assert be.map_items(square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_partitions_like_parallel(self):
        # n_workers shapes the chunking even inline — the property that
        # makes float partial sums comparable across substrates.
        with get_backend("serial", 4) as be:
            calls = be.map_ranges(lambda lo, hi: (lo, hi), 103)
        assert calls == even_ranges(103, 4)


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
        be.map_ranges(lambda lo, hi: hi, 10)
        be.close()
        be.close()

    def test_process_pool_is_warm(self):
        import os

        with get_backend("processes", 1) as be:
            pids = be.map_items(_worker_pid, [0, 1, 2])
        assert len(set(pids)) == 1
        assert pids[0] != os.getpid()


def _worker_pid(_: int) -> int:
    import os

    return os.getpid()
