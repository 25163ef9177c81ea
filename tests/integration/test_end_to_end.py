"""Integration tests across the full stack.

The central correctness claim of the paper is that operating on the
compressed stream is equivalent (within quantization effects) to the
traditional decompress-operate-recompress workflow.  These tests exercise
that equivalence on realistic synthetic fields for every operation, through
serialization, and through chained operations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SZOps, ops
from repro.core.format import SZOpsCompressed
from repro.core.ops.dispatch import OPERATIONS, operation_names
from repro.datasets import generate_fields
from repro.workflow import numpy_reference_op


@pytest.fixture(scope="module")
def field():
    return generate_fields("Miranda", scale=0.4, fields=["density"])["density"]


@pytest.fixture(scope="module")
def compressed(field):
    codec = SZOps()
    return codec, codec.compress(field, 1e-4)


class TestOperationEquivalence:
    @pytest.mark.parametrize("op", operation_names())
    def test_compressed_matches_reference(self, compressed, op):
        codec, c = compressed
        eps = c.eps
        scalar = 3.14 if OPERATIONS[op].needs_scalar else None
        x_hat = codec.decompress(c).astype(np.float64)
        reference = numpy_reference_op(x_hat, op, scalar)
        result = ops.apply_operation(c, op, scalar)
        if OPERATIONS[op].result == "computation":
            assert result == pytest.approx(reference, rel=1e-6, abs=1e-10)
        else:
            out = codec.decompress(result).astype(np.float64)
            if op == "scalar_multiply":
                limit = eps + np.abs(x_hat).max() * eps + 1e-9
            elif op == "negation":
                limit = 1e-12
            else:
                limit = eps + 1e-9
            assert np.max(np.abs(out - reference)) <= limit

    @pytest.mark.parametrize("op", ["negation", "scalar_add", "scalar_multiply"])
    def test_ops_compose_through_serialization(self, compressed, op):
        codec, c = compressed
        scalar = 2.0 if OPERATIONS[op].needs_scalar else None
        direct = ops.apply_operation(c, op, scalar)
        via_bytes = ops.apply_operation(
            SZOpsCompressed.from_bytes(c.to_bytes()), op, scalar
        )
        assert np.array_equal(codec.decompress(direct), codec.decompress(via_bytes))

    def test_chained_operations(self, compressed):
        """(-(2.5 * x + 1)) via compressed kernels vs NumPy."""
        codec, c = compressed
        x_hat = codec.decompress(c).astype(np.float64)
        chained = ops.negate(ops.scalar_add(ops.scalar_multiply(c, 2.5), 1.0))
        out = codec.decompress(chained).astype(np.float64)
        expected = -(2.5 * x_hat + 1.0)
        # multiplication contributes eps*(1+max|x|), addition another eps
        limit = 2 * c.eps + np.abs(x_hat).max() * c.eps + 1e-9
        assert np.max(np.abs(out - expected)) <= limit

    def test_reduction_after_scalar_ops(self, compressed):
        codec, c = compressed
        shifted = ops.scalar_add(c, 10.0)
        mu = ops.mean(shifted)
        assert mu == pytest.approx(
            float(codec.decompress(shifted).astype(np.float64).mean()), abs=1e-9
        )


class TestCrossDataset:
    @pytest.mark.parametrize("ds", ["Hurricane", "CESM-ATM", "SCALE-LETKF"])
    def test_roundtrip_and_mean_per_dataset(self, ds, assert_within_bound):
        codec = SZOps()
        fields = generate_fields(ds, scale=0.3)
        name, arr = next(iter(fields.items()))
        c = codec.compress(arr, 1e-4)
        assert_within_bound(arr, codec.decompress(c), 1e-4)
        assert ops.mean(c) == pytest.approx(
            float(codec.decompress(c).astype(np.float64).mean()), abs=1e-8
        )

    def test_sparse_dataset_constant_heavy(self):
        codec = SZOps()
        qc = generate_fields("SCALE-LETKF", scale=0.5, fields=["QC"])["QC"]
        c = codec.compress(qc, 1e-4)
        assert c.constant_fraction > 0.3
        # reductions exploit those blocks and still agree with the data
        x = codec.decompress(c).astype(np.float64)
        assert ops.variance(c) == pytest.approx(x.var(), rel=1e-6)


class TestMemoryBehaviour:
    def test_ops_do_not_inflate_streams(self, compressed):
        """Compression-as-output ops yield streams of comparable size."""
        codec, c = compressed
        for op, scalar in [("negation", None), ("scalar_add", 5.0)]:
            out = ops.apply_operation(c, op, scalar)
            # scalar_add can widen the serialized outlier plane (int16 ->
            # int32) when the shift pushes quantized firsts past 2**15.
            assert out.compressed_nbytes == pytest.approx(c.compressed_nbytes, rel=0.06)

    def test_multiply_growth_bounded(self, compressed):
        codec, c = compressed
        out = ops.scalar_multiply(c, 1000.0)
        # x1000 adds ~10 bits per element upper bound
        assert out.compressed_nbytes < c.compressed_nbytes * 4
