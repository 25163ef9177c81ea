"""Decoded-block cache: hit/miss behavior, invalidation, bounds, safety."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import ops
from repro.core.ops._partial import decode_stored_blocks, stored_quantized
from repro.runtime import (
    DecodedBlockCache,
    active_cache,
    cache_disabled,
    use_cache,
)


@pytest.fixture
def cache():
    """A fresh cache scoped to the test (isolates from the process default)."""
    cache = DecodedBlockCache(max_entries=8, max_bytes=64 << 20)
    with use_cache(cache):
        yield cache


@pytest.fixture
def stream(codec, smooth_1d):
    return codec.compress(smooth_1d, 1e-3)


class TestCacheBasics:
    def test_second_decode_hits(self, cache, stream):
        a = stored_quantized(stream)
        b = stored_quantized(stream)
        assert a is b
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cached_equals_uncached(self, cache, stream):
        cached = stored_quantized(stream)
        fresh = decode_stored_blocks(stream)
        assert np.array_equal(cached.q, fresh.q)
        assert np.array_equal(cached.lens, fresh.lens)
        assert np.array_equal(cached.stored_mask, fresh.stored_mask)
        assert np.array_equal(cached.const_outliers, fresh.const_outliers)
        assert np.array_equal(cached.const_lens, fresh.const_lens)

    def test_equal_bytes_share_entry(self, cache, stream, codec, smooth_1d):
        """Two containers with identical content share one cache entry."""
        twin = codec.compress(smooth_1d, 1e-3)
        a = stored_quantized(stream)
        b = stored_quantized(twin)
        assert a is b

    def test_reductions_on_same_stream_decode_once(self, cache, stream):
        ops.mean(stream)
        ops.variance(stream)
        ops.std(stream)
        ops.minimum(stream)
        assert cache.stats.misses == 1
        assert cache.stats.hits >= 3

    def test_cached_arrays_read_only(self, cache, stream):
        blocks = stored_quantized(stream)
        with pytest.raises(ValueError):
            blocks.q[0] = 99

    def test_disabled_scope_decodes_fresh(self, cache, stream):
        stored_quantized(stream)
        with cache_disabled():
            assert active_cache() is None
            fresh = stored_quantized(stream)
        assert fresh.q.flags.writeable  # not a frozen cache entry
        assert cache.stats.lookups == 1


class TestInvalidation:
    def test_fingerprint_changes_on_each_plane(self, codec, plateau_field):
        c = codec.compress(plateau_field, 1e-3)
        base = c.content_fingerprint()

        def flipped(plane: np.ndarray, i: int, bits: int) -> np.ndarray:
            out = plane.copy()
            out[i] ^= bits
            return out

        m = replace(c, outliers=flipped(c.outliers, 0, 1))
        assert m.content_fingerprint() != base
        m = replace(c, widths=flipped(c.widths, -1, 1))
        assert m.content_fingerprint() != base
        if c.sign_bytes.size:
            m = replace(c, sign_bytes=flipped(c.sign_bytes, 0, 0xFF))
            assert m.content_fingerprint() != base
        if c.payload_bytes.size:
            m = replace(c, payload_bytes=flipped(c.payload_bytes, 0, 0xFF))
            assert m.content_fingerprint() != base
        m = replace(c, eps=c.eps * 2)
        assert m.content_fingerprint() != base

    def test_copy_shares_fingerprint(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        copy = replace(
            c,
            widths=c.widths.copy(),
            outliers=c.outliers.copy(),
            sign_bytes=c.sign_bytes.copy(),
            payload_bytes=c.payload_bytes.copy(),
        )
        assert copy.content_fingerprint() == c.content_fingerprint()


class TestBounds:
    def test_entry_count_lru(self, codec, rng):
        cache = DecodedBlockCache(max_entries=2)
        with use_cache(cache):
            streams = [
                codec.compress(np.cumsum(rng.normal(size=256)) * 0.1, 1e-3)
                for _ in range(3)
            ]
            for s in streams:
                stored_quantized(s)
            assert len(cache) == 2
            assert cache.stats.evictions == 1
            # LRU: the first stream was evicted, the last two are present
            assert streams[0] not in cache
            assert streams[1] in cache and streams[2] in cache

    def test_byte_budget_respected(self, codec, rng):
        data = np.cumsum(rng.normal(size=4096)) * 0.1
        c = codec.compress(data, 1e-3)
        blocks = decode_stored_blocks(c)
        cache = DecodedBlockCache(max_entries=64, max_bytes=blocks.q.nbytes // 2)
        with use_cache(cache):
            out = stored_quantized(c)  # larger than the whole budget
            assert len(cache) == 0
            assert np.array_equal(out.q, blocks.q)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            DecodedBlockCache(max_entries=0)
        with pytest.raises(ValueError):
            DecodedBlockCache(max_bytes=0)

    def test_clear(self, cache, stream):
        stored_quantized(stream)
        assert len(cache) == 1 and cache.nbytes > 0
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0


class TestOpsThroughCache:
    """Operations must give identical results with and without the cache."""

    @pytest.mark.parametrize("name", ["mean", "variance", "std"])
    def test_reductions_identical(self, cache, stream, name):
        with cache_disabled():
            expect = ops.apply_operation(stream, name)
        got = ops.apply_operation(stream, name)  # cold, fills cache
        again = ops.apply_operation(stream, name)  # hit
        assert got == expect == again

    def test_scalar_multiply_identical(self, cache, stream):
        with cache_disabled():
            expect = ops.scalar_multiply(stream, 2.5).to_bytes()
        assert ops.scalar_multiply(stream, 2.5).to_bytes() == expect
        assert ops.scalar_multiply(stream, 2.5).to_bytes() == expect  # via hit

    def test_multivariate_identical(self, cache, codec, smooth_1d):
        a = codec.compress(smooth_1d, 1e-3)
        b = codec.compress(smooth_1d[::-1].copy(), 1e-3)
        with cache_disabled():
            expect = ops.add(a, b).to_bytes()
            expect_dot = ops.dot(a, b)
        assert ops.add(a, b).to_bytes() == expect
        assert ops.dot(a, b) == expect_dot
