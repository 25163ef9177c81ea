"""Lazy fusion correctness: fused chains vs eager one-at-a-time replay.

The ISSUE-1 cache-correctness satellite: fused ``(a·x + b)``-style chains
must be bit-identical to applying the operations eagerly one at a time.
Affine chains and chains ending in a multiply compare at the container-byte
level; every reduction compares exactly (the moments are exact integers,
whichever blocks a multiply reclassifies as constant).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ops
from repro.core.errors import OperationError
from repro.core.moments import QuantizedMoments
from repro.runtime import IntAffine, LazyStream, Requantize, lazy

# Chains expressed as apply_chain specs; every fusable op appears, alone and
# composed, with multiplies at the start, middle and end.
AFFINE_CHAINS = [
    [("negation", None)],
    [("scalar_add", 0.5)],
    [("scalar_subtract", 0.25)],
    [("negation", None), ("scalar_add", 1.5)],
    [("scalar_add", 1.2), ("scalar_subtract", 0.7), ("negation", None)],
]
MUL_CHAINS = [
    [("scalar_multiply", 0.1)],
    [("negation", None), ("scalar_multiply", 2.5)],
    [("scalar_multiply", 0.3), ("scalar_add", 1.0)],
    [("negation", None), ("scalar_multiply", 0.5), ("scalar_subtract", 0.2)],
    [("scalar_multiply", 1.5), ("scalar_multiply", -0.25)],
]
ALL_CHAINS = AFFINE_CHAINS + MUL_CHAINS


@pytest.fixture
def stream(codec, smooth_1d):
    return codec.compress(smooth_1d, 1e-3)


@pytest.fixture
def plateau_stream(codec, plateau_field):
    """A stream with constant blocks, so both block kinds are exercised."""
    return codec.compress(plateau_field, 1e-3)


def eager_replay(c, steps):
    return ops.apply_chain(c, steps, fused=False)


def fused(c, steps):
    for name, scalar in steps:
        c = c.apply(name, scalar) if isinstance(c, LazyStream) else lazy(c).apply(
            name, scalar
        )
    return c


class TestFolding:
    def test_double_negation_cancels(self, stream):
        assert lazy(stream).negate().negate().pending_ops == 0

    def test_add_then_subtract_cancels(self, stream):
        chain = lazy(stream).scalar_add(0.75).scalar_subtract(0.75)
        assert chain.pending_ops == 0

    def test_affine_run_folds_to_one_step(self, stream):
        chain = lazy(stream).negate().scalar_add(1.0).scalar_subtract(0.5).negate()
        assert chain.pending_ops == 1
        (step,) = chain.steps
        assert isinstance(step, IntAffine)

    def test_requantize_is_a_barrier(self, stream):
        chain = lazy(stream).negate().scalar_multiply(2.0).negate()
        assert chain.pending_ops == 3
        kinds = [type(s) for s in chain.steps]
        assert kinds == [IntAffine, Requantize, IntAffine]

    def test_chains_are_immutable_and_forkable(self, stream):
        base = lazy(stream).negate()
        left = base.scalar_add(1.0)
        right = base.scalar_multiply(2.0)
        assert base.pending_ops == 1
        assert left.pending_ops == 1  # folded
        assert right.pending_ops == 2
        assert left.base is right.base is stream

    def test_lazy_is_idempotent(self, stream):
        chain = lazy(stream).negate()
        assert lazy(chain) is chain

    def test_wrapping_a_lazystream_keeps_steps(self, stream):
        chain = lazy(stream).negate().scalar_multiply(2.0)
        rewrapped = LazyStream(chain)
        assert rewrapped.base is stream
        assert rewrapped.steps == chain.steps


class TestBitIdentity:
    """Fused chains reproduce the eager containers byte for byte."""

    @pytest.mark.parametrize("steps", ALL_CHAINS, ids=repr)
    def test_container_bytes_smooth(self, stream, steps):
        assert fused(stream, steps).to_bytes() == eager_replay(stream, steps).to_bytes()

    @pytest.mark.parametrize("steps", ALL_CHAINS, ids=repr)
    def test_container_bytes_constant_blocks(self, plateau_stream, steps):
        got = fused(plateau_stream, steps).to_bytes()
        assert got == eager_replay(plateau_stream, steps).to_bytes()

    @pytest.mark.parametrize("steps", ALL_CHAINS, ids=repr)
    def test_decompress_matches_eager(self, codec, stream, steps):
        got = fused(stream, steps).decompress()
        expect = codec.decompress(eager_replay(stream, steps))
        assert np.array_equal(got, expect)

    def test_3d_chain(self, codec, smooth_3d):
        c = codec.compress(smooth_3d, 1e-3)
        steps = [("negation", None), ("scalar_multiply", 0.1), ("scalar_add", 2.0)]
        out = fused(c, steps).materialize()
        assert out.shape == c.shape
        assert out.to_bytes() == eager_replay(c, steps).to_bytes()

    def test_empty_chain_materializes_the_base(self, stream):
        # containers are immutable, so the identity chain needs no copy
        out = lazy(stream).materialize()
        assert out is stream
        assert out.to_bytes() == stream.to_bytes()

    def test_base_is_never_mutated(self, stream):
        before = stream.to_bytes()
        chain = lazy(stream).negate().scalar_multiply(0.5).scalar_add(1.0)
        chain.materialize()
        chain.mean()
        assert stream.to_bytes() == before


class TestReductions:
    @pytest.mark.parametrize("steps", ALL_CHAINS, ids=repr)
    def test_mean_bit_identical(self, stream, steps):
        expect = ops.mean(eager_replay(stream, steps))
        assert fused(stream, steps).mean() == expect

    @pytest.mark.parametrize("steps", ALL_CHAINS, ids=repr)
    def test_min_max_bit_identical(self, plateau_stream, steps):
        out = eager_replay(plateau_stream, steps)
        chain = fused(plateau_stream, steps)
        assert chain.minimum() == ops.minimum(out)
        assert chain.maximum() == ops.maximum(out)

    @pytest.mark.parametrize("steps", ALL_CHAINS, ids=repr)
    def test_variance_std_match_to_rounding(self, stream, steps):
        out = eager_replay(stream, steps)
        chain = fused(stream, steps)
        assert chain.variance() == ops.variance(out)
        assert chain.std() == ops.std(out)

    def test_summary_statistics_consistent(self, stream):
        chain = lazy(stream).negate().scalar_multiply(0.1)
        stats = chain.summary_statistics()
        assert stats["mean"] == chain.mean()
        assert stats["variance"] == chain.variance()

    def test_reduction_without_steps_equals_eager_op(self, stream):
        assert lazy(stream).mean() == ops.mean(stream)
        assert lazy(stream).variance() == ops.variance(stream)
        assert lazy(stream).std() == ops.std(stream)

    def test_quantized_matches_full_decode(self, codec, plateau_field):
        c = codec.compress(plateau_field, 1e-3)
        q = lazy(c).quantized()
        assert q.dtype == np.int64
        np.testing.assert_array_equal(q, codec.decompress_quantized(c))
        # and a transformed view matches the decode of the materialization
        chain = lazy(c).negate().scalar_multiply(0.3)
        np.testing.assert_array_equal(
            chain.quantized(), codec.decompress_quantized(chain.materialize())
        )


class TestErrors:
    def test_unfusable_name_rejected(self, stream):
        with pytest.raises(OperationError, match="not fusable"):
            lazy(stream).apply("mean")

    def test_scalar_quantization_overflow_at_call(self, stream):
        with pytest.raises(OperationError, match="cannot be quantized"):
            lazy(stream).scalar_multiply(float("inf"))

    @pytest.mark.parametrize("name", ["scalar_add", "scalar_subtract"])
    def test_unquantizable_shift_at_call(self, codec, name):
        c = codec.compress(np.zeros(64), 1e-301)
        with pytest.raises(OperationError, match="cannot be quantized"):
            getattr(lazy(c), name)(35953863.0)

    def test_multiply_overflow_surfaces_at_forcing(self, stream):
        chain = lazy(stream).scalar_multiply(1e18)  # building is fine
        with pytest.raises(OperationError, match="overflows"):
            chain.materialize()
        with pytest.raises(OperationError, match="overflows"):
            chain.mean()

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_shift_guard_catches_int64_min(self, sigma):
        """``np.abs`` wraps INT64_MIN to a negative; the guard must not."""
        q = np.array([0, np.iinfo(np.int64).min + (sigma < 0)], dtype=np.int64)
        step = IntAffine(sigma, 1)
        with pytest.raises(OperationError, match="overflows"):
            step.apply(q)
        with pytest.raises(OperationError, match="overflows"):
            step.apply_moments(QuantizedMoments.of_values(q))

    def test_variance_ddof_guard(self, stream):
        with pytest.raises(ValueError, match="ddof"):
            lazy(stream).variance(ddof=stream.n_elements)


class TestApplyChain:
    def test_fused_equals_unfused_reduction(self, stream):
        steps = ["negation", "scalar_multiply=0.1", "mean"]
        assert ops.apply_chain(stream, steps, fused=True) == ops.apply_chain(
            stream, steps, fused=False
        )

    def test_fused_equals_unfused_container(self, stream):
        steps = ["negation", "scalar_add=1.5"]
        fused_out = ops.apply_chain(stream, steps, fused=True)
        eager_out = ops.apply_chain(stream, steps, fused=False)
        assert fused_out.to_bytes() == eager_out.to_bytes()

    def test_cli_syntax_and_tuples_mix(self, stream):
        got = ops.apply_chain(stream, ["scalar_multiply=0.5", ("mean", None)])
        assert got == ops.mean(ops.scalar_multiply(stream, 0.5))

    def test_minimum_maximum_terminal(self, stream):
        assert ops.apply_chain(stream, ["negation", "minimum"]) == ops.minimum(
            ops.negate(stream)
        )
        assert ops.apply_chain(stream, ["negation", "maximum"]) == ops.maximum(
            ops.negate(stream)
        )

    def test_normalize_rejects_bad_specs(self):
        with pytest.raises(OperationError, match="requires a scalar"):
            ops.normalize_chain(["scalar_add"])
        with pytest.raises(OperationError, match="takes no scalar"):
            ops.normalize_chain(["negation=3"])
        with pytest.raises(OperationError, match="takes no scalar"):
            ops.normalize_chain(["mean=3"])
        with pytest.raises(OperationError, match="unknown operation"):
            ops.normalize_chain(["transpose"])
        with pytest.raises(OperationError, match="bad scalar"):
            ops.normalize_chain(["scalar_add=abc"])
        with pytest.raises(OperationError, match="final step"):
            ops.normalize_chain(["mean", "negation"])
        with pytest.raises(OperationError, match="chain steps"):
            ops.normalize_chain([42])
