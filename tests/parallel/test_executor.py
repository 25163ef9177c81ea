"""Result-order tests for pooled chunk execution on the thread backend."""

from __future__ import annotations

from repro.parallel.backends import ThreadBackend
from repro.parallel.partition import even_ranges


def _chunk_lo(arrays, chunk):
    return chunk["lo"]


def _square_item(arrays, chunk):
    return chunk["x"] * chunk["x"]


class TestMapRanges:
    def test_results_in_range_order(self):
        chunks = [{"lo": lo, "hi": hi} for lo, hi in even_ranges(100, 4)]
        with ThreadBackend(4) as be:
            out = be.run_kernel(_chunk_lo, {}, chunks).results
        assert out == [c["lo"] for c in chunks]
        assert out == sorted(out)


class TestMapItems:
    def test_order_preserved(self):
        with ThreadBackend(4) as be:
            run = be.run_kernel(_square_item, {}, [{"x": x} for x in range(20)])
        assert run.results == [x * x for x in range(20)]
