"""Scalar addition/subtraction (fully compressed space) tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, ops
from repro.core.errors import OperationError
from repro.core.ops.scalar_add import quantized_scalar_shift


class TestScalarAdd:
    @pytest.mark.parametrize("s", [3.14, -2.7, 0.0, 1e3, -1e-5])
    def test_within_bound_of_shifted(self, codec, smooth_1d, s):
        eps = 1e-3
        c = codec.compress(smooth_1d, eps)
        x = codec.decompress(c).astype(np.float64)
        out = codec.decompress(ops.scalar_add(c, s)).astype(np.float64)
        assert np.max(np.abs(out - (x + s))) <= eps * (1 + 1e-9) + 1e-7

    def test_only_outliers_change(self, codec, smooth_1d):
        """Table V: scalar add touches neither signs nor payload."""
        c = codec.compress(smooth_1d, 1e-3)
        out = ops.scalar_add(c, 5.0)
        assert np.array_equal(out.sign_bytes, c.sign_bytes)
        assert np.array_equal(out.payload_bytes, c.payload_bytes)
        assert np.array_equal(out.widths, c.widths)
        rho, _ = quantized_scalar_shift(5.0, c.eps)
        assert np.array_equal(out.outliers, c.outliers + rho)

    def test_add_then_subtract_identity(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        back = ops.scalar_subtract(ops.scalar_add(c, 7.3), 7.3)
        assert back.to_bytes() == c.to_bytes()

    @given(
        s=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        eps_exp=st.integers(min_value=-5, max_value=-1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_property(self, s, eps_exp):
        eps = 10.0 ** eps_exp
        rng = np.random.default_rng(42)
        data = np.cumsum(rng.normal(size=300)) * 0.01
        codec = SZOps()
        c = codec.compress(data, eps)
        x = codec.decompress(c)
        out = codec.decompress(ops.scalar_add(c, s))
        assert np.max(np.abs(out - (x + s))) <= eps * (1 + 1e-9)

    def test_non_finite_scalar_rejected(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        with pytest.raises(ValueError):
            ops.scalar_add(c, float("nan"))

    @pytest.mark.parametrize("op", [ops.scalar_add, ops.scalar_subtract])
    def test_unquantizable_scalar_is_an_operation_error(self, codec, op):
        # the scalar's bin index overflows float64 at this bound; add and
        # subtract report it as multiply does, never as a bare ValueError
        c = codec.compress(np.zeros(64), 1e-301)
        before = c.to_bytes()
        with pytest.raises(OperationError, match="cannot be quantized"):
            op(c, 35953863.0)
        assert c.to_bytes() == before


class TestScalarSubtract:
    @pytest.mark.parametrize("s", [3.14, -0.5, 12.0])
    def test_within_bound_of_shifted(self, codec, smooth_1d, s):
        eps = 1e-3
        c = codec.compress(smooth_1d, eps)
        x = codec.decompress(c).astype(np.float64)
        out = codec.decompress(ops.scalar_subtract(c, s)).astype(np.float64)
        assert np.max(np.abs(out - (x - s))) <= eps * (1 + 1e-9) + 1e-7

    def test_paper_semantics_deduct_rho(self, codec, smooth_1d):
        """Section V-A.3: subtraction deducts the quantized scalar."""
        c = codec.compress(smooth_1d, 1e-3)
        out = ops.scalar_subtract(c, 2.5)
        rho, _ = quantized_scalar_shift(2.5, c.eps)
        assert np.array_equal(out.outliers, c.outliers - rho)


class TestQuantizedShift:
    def test_paper_example(self):
        # Section V-A.2: s=0.67, eps=0.01 -> rho in {33, 34} by the formula;
        # the exact formula floor((0.67+0.01)/0.02) gives 34 and its
        # representative 0.68 is within eps of 0.67.
        rho, rep = quantized_scalar_shift(0.67, 0.01)
        assert abs(rep - 0.67) <= 0.01 + 1e-12
        assert rho == 34
