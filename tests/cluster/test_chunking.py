"""Decode-free container split/merge: byte identity and alignment rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SZOps
from repro.cluster import (
    chunk_key,
    merge_containers,
    parse_chunk_key,
    split_container,
)
from repro.runtime.lazy import LazyStream


def _compress(n: int, block_size: int = 64, eps: float = 1e-3):
    rng = np.random.default_rng(n)
    data = np.cumsum(rng.normal(scale=5e-3, size=n)).astype(np.float32)
    return data, SZOps(block_size=block_size).compress(data, eps)


class TestChunkKeys:
    def test_roundtrip(self):
        key = chunk_key("hurricane-U", 42)
        assert key == "hurricane-U/#00042"
        assert parse_chunk_key(key) == ("hurricane-U", 42)

    def test_plain_names_do_not_parse(self):
        assert parse_chunk_key("hurricane-U") is None
        assert parse_chunk_key("U/#x1") is None

    def test_rejects_separator_in_name(self):
        with pytest.raises(ValueError):
            chunk_key("a/#b", 0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            chunk_key("a", -1)


class TestSplitMerge:
    @pytest.mark.parametrize("n", [64, 63, 1000, 20_000])
    @pytest.mark.parametrize("n_parts", [1, 3, 8])
    def test_merge_restores_exact_bytes(self, n, n_parts):
        _data, c = _compress(n)
        parts = split_container(c, n_parts)
        merged = merge_containers(parts, shape=c.shape)
        assert merged.to_bytes() == c.to_bytes()

    def test_parts_decompress_to_element_slices(self):
        data, c = _compress(20_000)
        parts = split_container(c, 5)
        decoded = np.concatenate([LazyStream(p).decompress() for p in parts])
        reference = LazyStream(c).decompress().reshape(-1)
        np.testing.assert_array_equal(decoded, reference)
        assert np.max(np.abs(decoded - data)) <= 1e-3

    def test_split_rejects_unaligned_block_size(self):
        # The compressor itself refuses such configs; forge one to pin
        # the splitter's own guard for containers built by other tools.
        from dataclasses import replace

        _data, c = _compress(500)
        forged = replace(c, block_size=20)
        with pytest.raises(ValueError, match="block_size"):
            split_container(forged, 3)

    def test_merge_rejects_mixed_eps(self):
        _d, a = _compress(640)
        rng = np.random.default_rng(1)
        b = SZOps(block_size=64).compress(
            rng.normal(size=640).astype(np.float32), 1e-2
        )
        with pytest.raises(ValueError, match="eps"):
            merge_containers([a, b])

    def test_merge_rejects_unaligned_middle_chunk(self):
        _d, c = _compress(1000)
        ragged, aligned = split_container(c, 2)[1], split_container(c, 2)[0]
        with pytest.raises(ValueError, match="block-aligned"):
            merge_containers([ragged, aligned])

    def test_merge_rejects_wrong_shape(self):
        _d, c = _compress(640)
        parts = split_container(c, 2)
        with pytest.raises(ValueError, match="elements"):
            merge_containers(parts, shape=(641,))


class TestQuantizedMoments:
    def test_per_chunk_moments_combine_exactly(self):
        from repro.cluster import combine_moments
        from repro.service.protocol import Moments

        _data, c = _compress(20_000)
        whole = LazyStream(c).quantized_moments()
        parts = split_container(c, 7)
        partials = [Moments(LazyStream(p).quantized_moments(), p.eps) for p in parts]
        assert combine_moments(partials).moments == whole
