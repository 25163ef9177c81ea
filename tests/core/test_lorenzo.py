"""Blockwise Lorenzo decorrelation tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockLayout
from repro.core.lorenzo import lorenzo_forward, lorenzo_inverse


class TestForward:
    def test_paper_example(self):
        # Section IV: q = {-1,-1,-3,-3} -> deltas {0,0,-2,0}, outlier -1.
        layout = BlockLayout(4, 8)
        deltas, outliers = lorenzo_forward(np.array([-1, -1, -3, -3]), layout)
        assert np.array_equal(deltas, [0, 0, -2, 0])
        assert np.array_equal(outliers, [-1])

    def test_block_starts_are_zero(self, rng):
        q = rng.integers(-1000, 1000, size=100).astype(np.int64)
        layout = BlockLayout(100, 16)
        deltas, outliers = lorenzo_forward(q, layout)
        assert np.all(deltas[layout.starts()] == 0)
        assert np.array_equal(outliers, q[layout.starts()])

    def test_shape_mismatch_rejected(self):
        layout = BlockLayout(10, 8)
        with pytest.raises(ValueError):
            lorenzo_forward(np.zeros(4, dtype=np.int64), layout)

    def test_out_receives_the_deltas(self, rng):
        q = rng.integers(-1000, 1000, size=100).astype(np.int64)
        layout = BlockLayout(100, 16)
        out = np.full(100, 7, dtype=np.int64)
        deltas, outliers = lorenzo_forward(q, layout, out=out)
        want, want_outliers = lorenzo_forward(q, layout)
        assert deltas is out
        assert np.array_equal(out, want)
        assert np.array_equal(outliers, want_outliers)

    @pytest.mark.parametrize("bad", ["aliased", "int32", "short", "strided"])
    def test_bad_out_rejected(self, bad):
        q = np.arange(16, dtype=np.int64)
        out = {
            "aliased": q,
            "int32": np.empty(16, dtype=np.int32),
            "short": np.empty(8, dtype=np.int64),
            "strided": np.empty(32, dtype=np.int64)[::2],
        }[bad]
        with pytest.raises(ValueError, match="out must be"):
            lorenzo_forward(q, BlockLayout(16, 8), out=out)


class TestRoundtrip:
    @given(
        n=st.integers(min_value=1, max_value=500),
        block=st.sampled_from([8, 16, 64, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_recovers(self, n, block):
        rng = np.random.default_rng(n * 7 + block)
        q = rng.integers(-(2**30), 2**30, size=n).astype(np.int64)
        layout = BlockLayout(n, block)
        deltas, outliers = lorenzo_forward(q, layout)
        assert np.array_equal(lorenzo_inverse(deltas, outliers, layout), q)

    def test_inverse_validates_shapes(self):
        layout = BlockLayout(10, 8)
        with pytest.raises(ValueError):
            lorenzo_inverse(np.zeros(4, dtype=np.int64), np.zeros(2, dtype=np.int64), layout)
        with pytest.raises(ValueError):
            lorenzo_inverse(np.zeros(10, dtype=np.int64), np.zeros(1, dtype=np.int64), layout)
