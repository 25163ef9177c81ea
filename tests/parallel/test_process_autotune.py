"""Chunk-batch autotuning in the process backend.

The planner's contract: first call per kernel ships chunks singly (so the
EWMA can observe real per-chunk cost), later calls batch cheap chunks to
amortize the measured dispatch overhead, and expensive chunks keep their
one-chunk-per-future dispatch.  Results must come back flattened in chunk
order regardless of batching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.moments import QuantizedMoments
from repro.parallel.backends.process import (
    OVERHEAD_AMORTIZATION,
    ProcessBackend,
)
from repro.parallel.kernels import reduce_moments_chunk


@pytest.fixture
def backend() -> ProcessBackend:
    # Planner-only tests: no pool is ever started, so no cleanup needed.
    return ProcessBackend(n_workers=2)


class TestBatchPlanner:
    def test_first_call_ships_singles(self, backend):
        chunks = [{"i": i} for i in range(10)]
        batches = backend._plan_batches("k", chunks, overhead=1e-3)
        assert batches == [[c] for c in chunks]

    def test_few_chunks_never_batch(self, backend):
        backend._note_chunk_time("k", 1, 1e-6)
        chunks = [{"i": 0}, {"i": 1}]
        assert backend._plan_batches("k", chunks, overhead=1.0) == [
            [chunks[0]],
            [chunks[1]],
        ]

    def test_cheap_chunks_batch_up_to_worker_cap(self, backend):
        backend._note_chunk_time("k", 1, 1e-5)  # 10 us chunks
        chunks = [{"i": i} for i in range(10)]
        batches = backend._plan_batches("k", chunks, overhead=1e-3)
        # target = 8 ms of work per future => hundreds of chunks, capped at
        # ceil(10 / 2) = 5 so both workers stay busy.
        assert [len(b) for b in batches] == [5, 5]
        assert [c for b in batches for c in b] == chunks  # order preserved

    def test_expensive_chunks_stay_single(self, backend):
        backend._note_chunk_time("k", 1, 10.0)
        chunks = [{"i": i} for i in range(10)]
        batches = backend._plan_batches("k", chunks, overhead=1e-3)
        assert all(len(b) == 1 for b in batches)

    def test_target_tracks_amortization_constant(self, backend):
        overhead = 1e-3
        avg = overhead  # chunk runtime == dispatch overhead
        backend._note_chunk_time("k", 1, avg)
        chunks = [{"i": i} for i in range(1000)]
        batches = backend._plan_batches("k", chunks, overhead)
        assert len(batches[0]) == int(OVERHEAD_AMORTIZATION)

    def test_estimates_are_per_kernel(self, backend):
        backend._note_chunk_time("cheap", 1, 1e-6)
        chunks = [{"i": i} for i in range(8)]
        assert all(
            len(b) == 1
            for b in backend._plan_batches("other", chunks, overhead=1e-3)
        )


class TestEwma:
    def test_first_sample_taken_verbatim(self, backend):
        backend._note_chunk_time("k", 2, 2.0)
        assert backend._chunk_ewma_s["k"] == pytest.approx(1.0)

    def test_update_blends_toward_new_sample(self, backend):
        backend._note_chunk_time("k", 1, 1.0)
        backend._note_chunk_time("k", 1, 3.0)
        # alpha = 0.4: 0.4 * 3 + 0.6 * 1
        assert backend._chunk_ewma_s["k"] == pytest.approx(1.8)

    def test_zero_chunks_ignored(self, backend):
        backend._note_chunk_time("k", 0, 1.0)
        assert "k" not in backend._chunk_ewma_s

    def test_discard_pool_forces_overhead_reprobe(self, backend):
        backend._dispatch_overhead_s = 0.5
        backend._discard_pool(kill=False)
        assert backend._dispatch_overhead_s is None


class TestBatchedExecution:
    def test_results_flatten_in_chunk_order_across_warm_calls(self):
        q = np.arange(120, dtype=np.int64)
        chunks = [{"lo": i, "hi": i + 10} for i in range(0, 120, 10)]
        expected = [QuantizedMoments.of_values(q[c["lo"] : c["hi"]]) for c in chunks]
        with ProcessBackend(n_workers=2) as be:
            # Call 1: singles (no estimate yet) seeds overhead + EWMA.
            first = be.run_kernel(reduce_moments_chunk, {"q": q}, chunks).results
            assert be._dispatch_overhead_s is not None
            assert "reduce_moments_chunk" in be._chunk_ewma_s
            # Call 2: may batch; results must still flatten in order.
            second = be.run_kernel(reduce_moments_chunk, {"q": q}, chunks).results
        assert first == expected
        assert second == expected
