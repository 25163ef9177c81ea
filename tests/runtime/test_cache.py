"""Decoded-block cache: hit/miss behavior, invalidation, bounds, safety."""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SZOps, lazy, ops
from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops import _partial
from repro.core.ops._partial import decode_stored_blocks, stored_quantized
from repro.runtime import (
    DecodedBlockCache,
    active_cache,
    cache_disabled,
    clear_cache,
    use_cache,
)
from repro.runtime import cache as cache_module
from repro.runtime.cache import MemoMiss, memo_only

REDUCTIONS = (ops.mean, ops.variance, ops.std, ops.minimum, ops.maximum)


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


@pytest.fixture
def decodes(monkeypatch):
    """Record every decode, through the cache or with it disabled."""
    calls: list[SZOpsCompressed] = []

    def counted(c):
        calls.append(c)
        return decode_stored_blocks(c)

    monkeypatch.setattr(cache_module, "decode_stored_blocks", counted)
    monkeypatch.setattr(_partial, "decode_stored_blocks", counted)
    return calls


class TestMomentsMemo:
    """A stream's exact moments outlive its decoded bins in the LRU."""

    def test_reductions_after_eviction_add_no_miss(self, codec, rng, decodes):
        a, b = (
            codec.compress(np.cumsum(rng.normal(size=4096)) * 0.1, 1e-3)
            for _ in range(2)
        )
        cache = DecodedBlockCache(max_entries=1)
        with use_cache(cache):
            ops.mean(a)
            stored_quantized(b)  # evicts a's bins
            assert a not in cache and cache.stats.evictions == 1
            misses, hits = cache.stats.misses, cache.stats.hits
            values = [fn(a) for fn in REDUCTIONS]
            assert cache.stats.misses == misses
            assert cache.stats.hits == hits + len(REDUCTIONS)
            assert a not in cache  # a memo hit does not re-insert the bins
        with cache_disabled():
            assert values == [fn(a) for fn in REDUCTIONS]
        assert len(decodes) == 2 + len(REDUCTIONS)

    def test_memo_hit_refreshes_lru_recency(self, codec, rng):
        a, b, d = (
            codec.compress(np.cumsum(rng.normal(size=4096)) * 0.1, 1e-3)
            for _ in range(3)
        )
        cache = DecodedBlockCache(max_entries=2)
        with use_cache(cache):
            ops.mean(a)
            ops.mean(b)
            misses = cache.stats.misses
            ops.mean(a)  # memo hit: a's bins become the most recent entry
            assert cache.stats.misses == misses
            stored_quantized(d)  # evicts the least recent, now b
            assert a in cache and b not in cache

    def test_oversized_stream_decodes_once(self, codec, rng, decodes):
        c = codec.compress(np.cumsum(rng.normal(size=4096)) * 0.1, 1e-3)
        budget = decode_stored_blocks(c).q.nbytes // 2
        decodes.clear()
        cache = DecodedBlockCache(max_entries=64, max_bytes=budget)
        with use_cache(cache):
            for fn in REDUCTIONS:
                fn(c)
        assert len(cache) == 0
        assert len(decodes) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == len(REDUCTIONS) - 1

    def test_clear_cache_forces_one_new_decode(self, cache, stream, decodes):
        ops.mean(stream)
        clear_cache()
        ops.variance(stream)
        ops.std(stream)
        assert len(decodes) == 2
        assert cache.stats.misses == 2 and cache.stats.hits == 1

    def test_cache_disabled_neither_reads_nor_writes(self, cache, stream, codec, rng, decodes):
        ops.mean(stream)
        memo = stream._moments_memo
        assert memo is not None
        fresh = codec.compress(np.cumsum(rng.normal(size=4096)) * 0.1, 1e-3)
        with cache_disabled():
            ops.mean(stream)
            ops.variance(stream)
            ops.mean(fresh)
        assert len(decodes) == 4
        assert stream._moments_memo is memo
        assert fresh._moments_memo is None
        assert cache.stats.lookups == 1

    def test_memo_of_one_cache_not_served_by_another(self, stream, decodes):
        a, b = DecodedBlockCache(), DecodedBlockCache()
        with use_cache(a):
            ops.mean(stream)
        with use_cache(b):
            ops.mean(stream)
            ops.mean(stream)
        assert len(decodes) == 2
        assert a.stats.misses == 1 and b.stats.misses == 1 and b.stats.hits == 1

    def test_copies_start_without_memo(self, cache, stream):
        ops.mean(stream)
        assert stream._moments_memo is not None
        for copy in (
            pickle.loads(pickle.dumps(stream)),
            replace(stream),
            SZOpsCompressed.from_bytes(stream.to_bytes()),
        ):
            assert copy.to_bytes() == stream.to_bytes()
            assert copy._moments_memo is None

    def test_concurrent_reductions_and_clears(self, codec, rng):
        """Each reduction is one counted lookup, and no thread reads a stale memo."""
        streams = [
            codec.compress(np.cumsum(rng.normal(size=2048)) * 0.1, 1e-3)
            for _ in range(4)
        ]
        with cache_disabled():
            want = [ops.mean(c) for c in streams]
        cache = DecodedBlockCache(max_entries=1)
        n_threads, iters = 6, 150
        wrong: list[int] = []

        def reduce_all() -> None:
            with use_cache(cache):
                for i in range(iters):
                    k = i % len(streams)
                    if ops.mean(streams[k]) != want[k]:
                        wrong.append(k)
                    if i % 37 == 0:
                        cache.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reduce_all) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert cache.stats.lookups == n_threads * iters


class TestMemoOnly:
    """``memo_only``: O(1) memo reads are served, everything else signals."""

    def test_valid_memo_is_one_hit_and_refreshes_recency(self, codec, rng):
        a, b, d = (
            codec.compress(np.cumsum(rng.normal(size=4096)) * 0.1, 1e-3)
            for _ in range(3)
        )
        cache = DecodedBlockCache(max_entries=2)
        with use_cache(cache):
            want = _partial.stored_moments(a)
            ops.mean(b)
            hits, misses = cache.stats.hits, cache.stats.misses
            with memo_only():
                assert _partial.stored_moments(a) == want
            assert cache.stats.hits == hits + 1 and cache.stats.misses == misses
            stored_quantized(d)  # evicts the least recent, now b
            assert a in cache and b not in cache

    def test_stale_memo_signals_without_counting(self, cache, stream, decodes):
        ops.mean(stream)
        clear_cache()
        before = replace(cache.stats)
        with memo_only(), pytest.raises(MemoMiss):
            _partial.stored_moments(stream)
        assert cache.stats == before
        assert len(decodes) == 1

    def test_miss_signals_without_counting(self, cache, stream, decodes):
        with memo_only(), pytest.raises(MemoMiss):
            _partial.stored_moments(stream)
        assert cache.stats == cache_module.CacheStats()
        assert decodes == [] and stream._moments_memo is None

    def test_memo_of_another_cache_signals(self, stream, decodes):
        with use_cache(DecodedBlockCache()):
            ops.mean(stream)
        other = DecodedBlockCache()
        with use_cache(other), memo_only(), pytest.raises(MemoMiss):
            _partial.stored_moments(stream)
        assert other.stats == cache_module.CacheStats()

    def test_stored_quantized_always_signals(self, cache, stream, decodes):
        stored_quantized(stream)
        ops.mean(stream)
        before = replace(cache.stats)
        with memo_only(), pytest.raises(MemoMiss):
            stored_quantized(stream)
        assert cache.stats == before
        assert len(decodes) == 1

    def test_cache_disabled_signals(self, cache, stream, decodes):
        ops.mean(stream)
        with cache_disabled(), memo_only(), pytest.raises(MemoMiss):
            _partial.stored_moments(stream)
        assert len(decodes) == 1

    def test_scope_is_per_thread_and_nests(self, cache, stream):
        outcomes: list[str] = []

        def try_decode() -> None:
            try:
                stored_quantized(stream)
                outcomes.append("decoded")
            except MemoMiss:
                outcomes.append("refused")

        with memo_only():
            with memo_only():
                try_decode()
            try_decode()
            worker = threading.Thread(target=try_decode)
            worker.start()
            worker.join()
        try_decode()
        assert outcomes == ["refused", "refused", "decoded", "decoded"]

    def test_lazy_chain_inside_the_guard(self, cache, stream):
        """A negate/add suffix maps the memo; a multiply signals."""
        chain = lazy(stream).negate().scalar_add(0.5)
        want = chain.quantized_moments()
        with memo_only():
            assert chain.quantized_moments() == want
            with pytest.raises(MemoMiss):
                chain.scalar_multiply(2.0).quantized_moments()


_STEP = st.one_of(
    st.just(("negation", None)),
    st.tuples(
        st.sampled_from(["scalar_add", "scalar_subtract"]),
        st.floats(-5.0, 5.0, allow_nan=False),
    ),
    st.tuples(st.just("scalar_multiply"), st.floats(-3.0, 3.0, allow_nan=False)),
)


@given(
    seed=st.integers(0, 2**16),
    chain=st.lists(_STEP, max_size=4),
    prefix=st.lists(_STEP.filter(lambda s: s[0] != "scalar_multiply"), max_size=3),
)
def test_memo_equals_fresh_moments(seed, chain, prefix):
    """Random eager ops and lazy prefixes never serve a stale memo."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=1500)) * 0.05
    data[200:600] = 0.5  # constant blocks
    c = SZOps().compress(data.astype(np.float32), 1e-3)
    with use_cache(DecodedBlockCache(max_entries=2)):
        streams = [c]
        for name, s in chain:
            streams.append(ops.apply_operation(streams[-1], name, scalar=s))
        for out in streams:
            ops.mean(out)
            chained = lazy(out)
            for name, s in prefix:
                chained = chained.apply(name, s)
            want = chained.materialize()
            got = chained.quantized_moments()
            assert got == QuantizedMoments.of(decode_stored_blocks(want))
            lazy(out).summary_statistics(executor=None)
        for out in streams:
            assert out._moments_memo is not None
            assert out._moments_memo[1] == QuantizedMoments.of(decode_stored_blocks(out))
