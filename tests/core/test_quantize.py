"""Quantization-stage tests: the central error-bound invariant."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, ops
from repro.core.config import check_eps, resolve_error_bound
from repro.core.errors import ConfigError
from repro.core.quantize import (
    Q_LIMIT,
    dequantize,
    dequantize_scalar,
    quantize,
    quantize_scalar,
)


def reference_quantize(values, eps):
    """The three-step QZ formula with the correction checked on every element.

    Kept as the reference the single-pass ``quantize`` must match exactly,
    error messages included; the bound is checked first, as ``quantize``
    does.
    """
    check_eps(eps)
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("input contains non-finite values; error-bounded "
                         "quantization requires finite data")
    scaled = np.floor((v + eps) / (2.0 * eps))
    if scaled.size and (
        not np.all(np.isfinite(scaled))
        or np.abs(scaled).max() >= float(Q_LIMIT)
    ):
        raise ValueError(
            f"data at eps {eps!r} overflows the quantized integer range; "
            "increase the error bound"
        )
    q = scaled.astype(np.int64)
    err = 2.0 * eps * q.astype(np.float64) - v
    half_ulp = 0.5 * np.spacing(np.abs(v) + eps)
    np.subtract(q, 1, out=q, where=err > eps + half_ulp)
    np.add(q, 1, out=q, where=err < -(eps + half_ulp))
    return q


def _outcome(fn, values, eps):
    try:
        return fn(values, eps), None
    except ValueError as exc:
        return None, str(exc)


def assert_matches_reference(values, eps):
    """``quantize`` equals the reference: same bins, or the same error."""
    # overflowing inputs warn on both sides before they raise
    with np.errstate(over="ignore", invalid="ignore"):
        got, got_err = _outcome(quantize, values, eps)
        want, want_err = _outcome(reference_quantize, values, eps)
    assert got_err == want_err
    if want is not None:
        assert got.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def boundary_corpus(ks, eps, dtype=np.float64):
    """Bin boundaries ``(2k-1)*eps`` and their ±1-ulp neighbours, shape (3, n)."""
    b = (2.0 * np.asarray(ks, dtype=np.float64) - 1.0) * eps
    rows = [np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]
    return np.stack(rows).astype(dtype)


_DTYPES = (np.float16, np.float32, np.float64, np.int64)
_eps_values = st.builds(
    lambda m, e: m * 10.0 ** e,
    st.floats(min_value=1.0, max_value=9.99),
    st.integers(min_value=-9, max_value=2),
)


class TestBound:
    def test_paper_example(self):
        # Section IV example: eps=0.01, values quantize to {-1,-1,-3,-3}.
        values = np.array([-0.025, -0.025, -0.051, -0.052])
        assert np.array_equal(quantize(values, 0.01), [-1, -1, -3, -3])

    def test_roundtrip_bound(self, rng):
        data = rng.normal(scale=10, size=10_000)
        for eps in (1e-1, 1e-3, 1e-5):
            recon = dequantize(quantize(data, eps), eps)
            assert np.max(np.abs(recon - data)) <= eps

    @given(
        eps_exp=st.integers(min_value=-8, max_value=2),
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_property(self, eps_exp, values):
        eps = 10.0 ** eps_exp
        arr = np.array(values, dtype=np.float64)
        recon = dequantize(quantize(arr, eps), eps)
        slack = float(np.spacing(np.max(np.abs(arr)) + eps)) if arr.size else 0.0
        assert np.max(np.abs(recon - arr)) <= eps + slack

    def test_float32_input_uses_float64_math(self):
        data = np.array([1e6], dtype=np.float32)
        q = quantize(data, 1e-3)
        recon = dequantize(q, 1e-3)
        # the bound holds against the float32 value exactly
        assert abs(recon[0] - float(data[0])) <= 1e-3


class TestReferenceEquivalence:
    """Single-pass ``quantize`` is array-equal to the full-correction formula."""

    @given(
        eps=_eps_values,
        ks=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=64),
        dtype=st.sampled_from((np.float32, np.float64)),
    )
    def test_bin_boundaries(self, eps, ks, dtype):
        values = boundary_corpus(ks, eps, dtype)
        assert_matches_reference(values, eps)
        # transposed: a non-contiguous view must give the same bins
        assert_matches_reference(values.T, eps)

    @given(
        eps=_eps_values,
        offset=st.floats(min_value=-1e12, max_value=1e12),
        noise=st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=64
        ),
    )
    def test_large_offsets(self, eps, offset, noise):
        assert_matches_reference(offset + np.asarray(noise), eps)

    @given(
        eps=_eps_values,
        dtype=st.sampled_from(_DTYPES),
        values=st.lists(
            st.floats(min_value=-6e4, max_value=6e4), min_size=1, max_size=64
        ),
    )
    def test_input_dtypes(self, eps, dtype, values):
        assert_matches_reference(np.asarray(values).astype(dtype), eps)

    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=32)
    )
    def test_int64_full_range(self, values):
        assert_matches_reference(np.asarray(values, dtype=np.int64), 0.5)

    @given(
        eps=st.floats(min_value=5e-324, max_value=1e-9),
        values=st.lists(
            st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=32
        ),
    )
    def test_tiny_eps_overflows_q_limit(self, eps, values):
        assert_matches_reference(np.asarray(values), eps)

    @given(
        eps=st.floats(min_value=5e-324, max_value=1.7e308),
        values=st.lists(st.floats(width=64), min_size=1, max_size=32),
    )
    def test_any_float64_input(self, eps, values):
        assert_matches_reference(np.asarray(values), eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_correction_fires_on_boundary_corpus(self, dtype):
        rng = np.random.default_rng(17)
        fired = 0
        for eps in (1e-1, 3e-3, 1e-4, 7e-7, 1e-9):
            values = boundary_corpus(rng.integers(-10**6, 10**6, 4096), eps, dtype)
            want = reference_quantize(values, eps)
            uncorrected = np.floor(
                (values.astype(np.float64) + eps) / (2.0 * eps)
            ).astype(np.int64)
            fired += int(np.count_nonzero(want != uncorrected))
            assert np.array_equal(quantize(values, eps), want)
        # the corpus exercises the candidate path, so equality is not vacuous
        assert fired > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_input_message(self, bad, dtype):
        values = np.array([1.0, bad, 2.0], dtype=dtype)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(values, 1e-3)
        # also when a finite element would overflow the bin range first
        assert_matches_reference(np.array([1e300, bad]), 1e-9)
        assert_matches_reference(values, 1e-3)


class TestScalar:
    def test_paper_scalar_examples(self):
        # Section V: eps=0.01 -> s=3.14 quantizes to bin 157.
        assert quantize_scalar(3.14, 0.01) == 157
        assert dequantize_scalar(157, 0.01) == pytest.approx(3.14)

    def test_scalar_bound(self):
        for s in (-12.7, -0.001, 0.0, 0.49, 1e4):
            for eps in (1e-1, 1e-4):
                rho = quantize_scalar(s, eps)
                assert abs(dequantize_scalar(rho, eps) - s) <= eps

    def test_scalar_matches_array_quantizer(self, rng):
        vals = rng.normal(scale=5, size=100)
        q_arr = quantize(vals, 1e-3)
        q_scalar = [quantize_scalar(float(v), 1e-3) for v in vals]
        assert np.array_equal(q_arr, q_scalar)


class TestValidation:
    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ConfigError):
            quantize(np.zeros(1), 0.0)
        with pytest.raises(ConfigError):
            dequantize(np.zeros(1, dtype=np.int64), -1.0)
        with pytest.raises(ConfigError):
            quantize_scalar(1.0, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ConfigError, match="finite"):
            quantize(np.zeros(4), eps)
        with pytest.raises(ConfigError, match="finite"):
            dequantize(np.zeros(4, dtype=np.int64), eps)
        with pytest.raises(ConfigError, match="finite"):
            quantize_scalar(1.0, eps)
        for mode in ("abs", "rel"):
            with pytest.raises(ConfigError, match="finite"):
                resolve_error_bound(eps, mode, 1.0)

    @pytest.mark.parametrize("eps", [8.99e307, 1e308, np.finfo(np.float64).max])
    def test_eps_with_overflowing_bin_width_rejected(self, eps):
        # 2*eps overflows to inf: every representative would decompress to NaN
        data = np.linspace(-1.0, 1.0, 64)
        with pytest.raises(ConfigError, match=r"2\*eps"):
            SZOps().compress(data, eps)
        with pytest.raises(ConfigError, match=r"2\*eps"):
            quantize_scalar(1.0, eps)
        with pytest.raises(ConfigError, match=r"2\*eps"):
            dequantize(np.zeros(4, dtype=np.int64), eps)

    def test_largest_accepted_eps_stays_bounded(self):
        eps = float(np.finfo(np.float64).max) / 2  # 2*eps is still finite
        data = np.linspace(-1.0, 1.0, 64)
        codec = SZOps()
        c = codec.compress(data, eps)
        out = codec.decompress(c)
        assert np.all(np.isfinite(out))
        assert np.abs(out - data).max() <= eps
        assert np.isfinite(ops.mean(c))

    def test_quantize_raises_without_numpy_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                quantize(np.array([1e10, 2.0]), 1e-300)
            with pytest.raises(ValueError, match="non-finite"):
                quantize(np.array([np.inf, 1.0]), 1e-300)
            assert quantize(np.array([1e308, -1e308]), 1e300).dtype == np.int64

    @pytest.mark.parametrize("value_range", [np.nan, np.inf])
    def test_non_finite_value_range_rejected(self, value_range):
        with pytest.raises(ConfigError, match="finite"):
            resolve_error_bound(1e-3, "rel", value_range)

    @pytest.mark.parametrize("eps", [5e-324, 1e-3, 1e300])
    def test_finite_positive_eps_accepted(self, eps):
        assert resolve_error_bound(eps, "abs", 0.0) == eps
        assert resolve_error_bound(0.5, "rel", 2.0) == 1.0
        q = quantize(np.zeros(4), eps)
        assert np.array_equal(q, np.zeros(4, dtype=np.int64))
        assert np.array_equal(dequantize(q, eps), np.zeros(4))
        assert quantize_scalar(0.0, eps) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([np.nan]), 1e-3)
        with pytest.raises(ValueError, match="finite"):
            quantize_scalar(float("inf"), 1e-3)
