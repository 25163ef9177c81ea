"""Negation (fully compressed space) tests."""

from __future__ import annotations

import numpy as np

from repro import SZOps, ops
from repro.core.format import SZOpsCompressed


class TestNegation:
    def test_exact_negation(self, codec, smooth_3d):
        c = codec.compress(smooth_3d, 1e-4)
        x = codec.decompress(c)
        assert np.array_equal(codec.decompress(ops.negate(c)), -x)

    def test_involution(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        twice = ops.negate(ops.negate(c))
        assert twice.to_bytes() == c.to_bytes()

    def test_payload_untouched(self, codec, smooth_1d):
        """Table V: negation runs with no payload decompression at all."""
        c = codec.compress(smooth_1d, 1e-3)
        n = ops.negate(c)
        assert np.array_equal(n.payload_bytes, c.payload_bytes)
        assert np.array_equal(n.widths, c.widths)

    def test_outliers_negated(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        n = ops.negate(c)
        assert np.array_equal(n.outliers, -c.outliers)

    def test_not_inplace_by_default(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        before = c.to_bytes()
        ops.negate(c)
        assert c.to_bytes() == before

    def test_after_serialization_roundtrip(self, codec, smooth_3d):
        c = codec.compress(smooth_3d, 1e-4)
        parsed = SZOpsCompressed.from_bytes(c.to_bytes())
        assert np.array_equal(
            codec.decompress(ops.negate(parsed)), -codec.decompress(c)
        )

    def test_constant_blocks(self, codec, plateau_field):
        c = codec.compress(plateau_field, 1e-4)
        assert c.n_constant_blocks > 0
        x = codec.decompress(c)
        assert np.array_equal(codec.decompress(ops.negate(c)), -x)

    def test_result_serializes(self, codec, smooth_1d):
        """The negated container must be a valid stream (padding bits clean)."""
        c = codec.compress(smooth_1d, 1e-3)
        n = ops.negate(c)
        parsed = SZOpsCompressed.from_bytes(n.to_bytes())
        assert np.array_equal(codec.decompress(parsed), codec.decompress(n))
