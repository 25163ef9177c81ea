"""Future-work multivariate operations and measures (Section VII)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, ops
from repro.core.errors import OperationError
from repro.core.ops._partial import stored_quantized
from repro.core.quantize import Q_LIMIT


@pytest.fixture
def pair(codec, rng):
    x = np.cumsum(rng.normal(scale=2e-2, size=5000)).astype(np.float32)
    y = np.cumsum(rng.normal(scale=2e-2, size=5000)).astype(np.float32)
    ca = codec.compress(x, 1e-4)
    cb = codec.compress(y, 1e-4)
    return ca, cb, codec.decompress(ca).astype(np.float64), codec.decompress(cb).astype(np.float64)


class TestAddSubtract:
    def test_add_exact_over_represented(self, codec, pair):
        ca, cb, xa, xb = pair
        out = codec.decompress(ops.add(ca, cb)).astype(np.float64)
        assert np.max(np.abs(out - (xa + xb))) <= 1e-6

    def test_subtract_exact_over_represented(self, codec, pair):
        ca, cb, xa, xb = pair
        out = codec.decompress(ops.subtract(ca, cb)).astype(np.float64)
        assert np.max(np.abs(out - (xa - xb))) <= 1e-6

    def test_subtract_self_is_zero(self, codec, pair):
        ca, _, _, _ = pair
        out = codec.decompress(ops.subtract(ca, ca))
        assert np.allclose(out, 0.0)

    def test_constant_pairs_skip_payload(self, codec):
        a = codec.compress(np.full(640, 1.0, dtype=np.float32), 1e-3)
        b = codec.compress(np.full(640, 2.0, dtype=np.float32), 1e-3)
        out = ops.add(a, b)
        assert out.constant_fraction == 1.0
        assert out.payload_bytes.size == 0
        assert np.allclose(codec.decompress(out), 3.0, atol=2e-3)

    def test_shape_mismatch_rejected(self, codec, rng):
        a = codec.compress(rng.normal(size=100).astype(np.float32), 1e-3)
        b = codec.compress(rng.normal(size=101).astype(np.float32), 1e-3)
        with pytest.raises(OperationError, match="shape"):
            ops.add(a, b)

    def test_eps_mismatch_rejected(self, codec, rng):
        data = rng.normal(size=100).astype(np.float32)
        a = codec.compress(data, 1e-3)
        b = codec.compress(data, 1e-4)
        with pytest.raises(OperationError, match="error-bound"):
            ops.add(a, b)

    def test_block_size_mismatch_rejected(self, rng):
        data = rng.normal(size=256).astype(np.float32)
        a = SZOps(block_size=64).compress(data, 1e-3)
        b = SZOps(block_size=128).compress(data, 1e-3)
        with pytest.raises(OperationError, match="block size"):
            ops.add(a, b)


class TestMeasures:
    def test_dot(self, pair):
        ca, cb, xa, xb = pair
        # xa/xb are float32 casts of the represented values, so allow
        # a few float32 ulps of relative slack.
        assert ops.dot(ca, cb) == pytest.approx(float(np.dot(xa, xb)), rel=5e-6)

    def test_l2_distance(self, pair):
        ca, cb, xa, xb = pair
        assert ops.l2_distance(ca, cb) == pytest.approx(
            float(np.linalg.norm(xa - xb)), rel=5e-6, abs=1e-9
        )

    def test_l2_distance_to_self_zero(self, pair):
        ca, _, _, _ = pair
        assert ops.l2_distance(ca, ca) == pytest.approx(0.0, abs=1e-9)

    def test_cosine_similarity(self, pair):
        ca, cb, xa, xb = pair
        expected = float(np.dot(xa, xb) / (np.linalg.norm(xa) * np.linalg.norm(xb)))
        assert ops.cosine_similarity(ca, cb) == pytest.approx(expected, rel=5e-6)

    def test_cosine_of_zero_rejected(self, codec):
        zero = codec.compress(np.zeros(64, dtype=np.float32), 1e-3)
        with pytest.raises(OperationError, match="zero"):
            ops.cosine_similarity(zero, zero)

    def test_measures_with_constant_blocks(self, codec, plateau_field):
        c = codec.compress(plateau_field, 1e-4)
        x = codec.decompress(c).astype(np.float64).reshape(-1)
        assert ops.dot(c, c) == pytest.approx(float(np.dot(x, x)), rel=5e-6)


# ---------------------------------------------------------------------------
# the combine's range gate: exact inside the |q| < Q_LIMIT band, refused outside
# ---------------------------------------------------------------------------

#: Operand offsets: far from the limit, and near it from either side.
OFFSETS = [0, 2**40, 2**61, -(2**61), 2**62 - 2**59, -(2**62) + 2**59, 2**62 - 200]


@given(
    n=st.integers(min_value=1, max_value=700),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset_a=st.sampled_from(OFFSETS),
    offset_b=st.sampled_from(OFFSETS),
    constant_every=st.sampled_from([0, 2, 3]),
    sign=st.sampled_from([1, -1]),
)
@settings(deadline=None)
def test_combine_is_exact_or_refused(n, seed, offset_a, offset_b, constant_every, sign):
    """In-band sums keep every bin exactly; a sum leaving the band raises.

    The oracle is Python-int arithmetic on the operands' bins: a pair whose
    combined bins all satisfy ``|q| < Q_LIMIT`` decodes to exactly
    ``q_a ± q_b``, and any other pair raises the combine's range error,
    naming the constant blocks when two constant blocks overflow.
    """
    rng = np.random.default_rng(seed)
    lens_of = []

    def stream(offset):
        q = rng.integers(-3, 4, size=n)
        if constant_every:
            for start in range(0, n, constant_every * 64):
                q[start : start + 64] = q[start]  # a constant block
        q = np.clip(q + offset, -int(Q_LIMIT) + 1, int(Q_LIMIT) - 1)
        c = SZOps(block_size=64).encode_quantized(q, q.shape, np.float64, 0.5)
        lens_of.append(c.layout.lengths())
        return c, [int(v) for v in q]

    (a, qa), (b, qb) = stream(offset_a), stream(offset_b)
    expected = [x + sign * y for x, y in zip(qa, qb)]
    blocks_a, blocks_b = stored_quantized(a), stored_quantized(b)
    both_const = np.repeat(~blocks_a.stored_mask & ~blocks_b.stored_mask, lens_of[0])
    combine = ops.add if sign > 0 else ops.subtract
    if all(abs(v) < int(Q_LIMIT) for v in expected):
        got = stored_quantized(combine(a, b)).expand(lens_of[0])
        assert [int(v) for v in got] == expected
        return
    const_overflow = any(
        abs(v) >= int(Q_LIMIT) for v, k in zip(expected, both_const) if k
    )
    context = "compressed-domain combine" + (" (constant blocks)" if const_overflow else "")
    with pytest.raises(OperationError) as info:
        combine(a, b)
    assert str(info.value).startswith(f"{context} overflows the quantized integer range")
