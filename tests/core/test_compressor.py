"""End-to-end compressor tests: bounds, shapes, dtypes, threading, config."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, SZOpsConfig
from repro.core.errors import ConfigError


class TestRoundtrip:
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
    def test_bound_1d(self, codec, smooth_1d, assert_within_bound, eps):
        c = codec.compress(smooth_1d, eps)
        assert_within_bound(smooth_1d, codec.decompress(c), eps)

    def test_bound_3d(self, codec, smooth_3d, assert_within_bound):
        c = codec.compress(smooth_3d, 1e-4)
        out = codec.decompress(c)
        assert out.shape == smooth_3d.shape
        assert out.dtype == smooth_3d.dtype
        assert_within_bound(smooth_3d, out, 1e-4)

    def test_bound_2d_float64(self, codec, rng, assert_within_bound):
        data = np.cumsum(rng.normal(size=(64, 65)), axis=1) * 1e-2
        c = codec.compress(data, 1e-6)
        out = codec.decompress(c)
        assert out.dtype == np.float64
        assert_within_bound(data, out, 1e-6)

    def test_relative_mode(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3, mode="rel")
        rng_val = float(smooth_1d.max() - smooth_1d.min())
        assert c.eps == pytest.approx(1e-3 * rng_val)
        err = np.max(np.abs(codec.decompress(c).astype(np.float64) - smooth_1d.astype(np.float64)))
        slack = float(np.spacing(np.float32(np.abs(smooth_1d).max() + c.eps)))
        assert err <= c.eps + slack

    def test_constant_array(self, codec):
        data = np.full(1000, 2.5, dtype=np.float32)
        c = codec.compress(data, 1e-4)
        assert c.constant_fraction == 1.0
        assert np.allclose(codec.decompress(c), 2.5, atol=1e-4)

    def test_ragged_tail(self, codec, rng, assert_within_bound):
        data = np.cumsum(rng.normal(size=1003)).astype(np.float32) * 1e-2
        c = codec.compress(data, 1e-3)
        assert_within_bound(data, codec.decompress(c), 1e-3)

    def test_tiny_array(self, codec):
        data = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        c = codec.compress(data, 1e-3)
        assert np.allclose(codec.decompress(c), data, atol=1e-3)

    @given(
        n=st.integers(min_value=1, max_value=700),
        eps_exp=st.integers(min_value=-6, max_value=-1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_property(self, n, eps_exp, seed):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=n)).astype(np.float64) * 0.1
        eps = 10.0 ** eps_exp
        codec = SZOps()
        recon = codec.decompress(codec.compress(data, eps))
        assert np.max(np.abs(recon - data)) <= eps


class TestPartialDecompression:
    def test_quantized_matches_full(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-4)
        q = codec.decompress_quantized(c)
        full = codec.decompress(c)
        assert np.allclose(2 * c.eps * q, full.astype(np.float64), atol=1e-7)


class TestThreading:
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_threaded_stream_identical(self, smooth_3d, n_threads):
        base = SZOps().compress(smooth_3d, 1e-4)
        threaded = SZOps(n_threads=n_threads).compress(smooth_3d, 1e-4)
        assert base.to_bytes() == threaded.to_bytes()

    def test_threaded_decompress_identical(self, smooth_3d):
        c = SZOps().compress(smooth_3d, 1e-4)
        single = SZOps().decompress(c)
        multi = SZOps(n_threads=3).decompress(c)
        assert np.array_equal(single, multi)

    def test_context_manager_closes_pool(self, smooth_1d):
        with SZOps(n_threads=2) as codec:
            codec.compress(smooth_1d, 1e-3)
        assert codec._pool is None


class TestValidation:
    def test_integer_input_rejected(self, codec):
        with pytest.raises(TypeError, match="floating-point"):
            codec.compress(np.arange(10), 1e-3)

    def test_longdouble_rejected(self, codec):
        # Its width and layout depend on the platform: no portable stream.
        if np.dtype(np.longdouble).itemsize == 8:
            pytest.skip("long double is float64 on this platform")
        with pytest.raises(TypeError, match="float16, float32 or float64"):
            codec.compress(np.ones(10, dtype=np.longdouble), 1e-3)

    def test_empty_input_rejected(self, codec):
        with pytest.raises(ValueError, match="empty"):
            codec.compress(np.zeros(0, dtype=np.float32), 1e-3)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ConfigError):
            SZOps(block_size=10)
        with pytest.raises(ConfigError):
            SZOps(block_size=0)

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ConfigError):
            SZOps(n_threads=0)

    def test_config_object(self, smooth_1d):
        codec = SZOps(config=SZOpsConfig(block_size=128, n_threads=1))
        assert codec.block_size == 128
        c = codec.compress(smooth_1d, 1e-3)
        assert c.block_size == 128

    def test_bad_bitpack_kernel_rejected(self):
        with pytest.raises(ConfigError, match="bitpack_kernel"):
            SZOps(config=SZOpsConfig(bitpack_kernel="simd"))

    def test_bitpack_kernel_variants_bit_identical(self, smooth_1d):
        """Every SZOpsConfig.bitpack_kernel level yields the same stream."""
        from repro.core.config import VALID_BITPACK_KERNELS

        ref = SZOps().compress(smooth_1d, 1e-3).to_bytes()
        for name in VALID_BITPACK_KERNELS:
            codec = SZOps(config=SZOpsConfig(bitpack_kernel=name))
            c = codec.compress(smooth_1d, 1e-3)
            assert c.to_bytes() == ref, name
            assert np.array_equal(
                codec.decompress(c), SZOps().decompress(c)
            ), name


class TestContainerStats:
    def test_ratio_positive(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        assert c.compression_ratio > 1.0
        assert c.original_nbytes == smooth_1d.nbytes

    def test_looser_bound_compresses_better(self, codec, smooth_1d):
        tight = codec.compress(smooth_1d, 1e-5)
        loose = codec.compress(smooth_1d, 1e-2)
        assert loose.compressed_nbytes < tight.compressed_nbytes

    def test_constant_blocks_detected(self, codec, plateau_field):
        c = codec.compress(plateau_field, 1e-4)
        assert c.n_constant_blocks > 0
        assert 0 < c.constant_fraction < 1
