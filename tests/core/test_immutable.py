"""Immutable containers: read-only planes, shared planes, one memoised digest."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, lazy, ops
from repro.cluster import merge_containers, split_container
from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed

PLANES = ("widths", "outliers", "sign_bytes", "payload_bytes")


@pytest.fixture
def stream(codec, plateau_field):
    c = codec.compress(plateau_field, 1e-4)
    assert c.n_constant_blocks and c.sign_bytes.size and c.payload_bytes.size
    return c


def _sources(codec: SZOps, c: SZOpsCompressed) -> dict[str, SZOpsCompressed]:
    """One container from every place the library builds them."""
    q = codec.decompress_quantized(c)
    parts = split_container(c, 3)
    return {
        "compress": c,
        "from_bytes": SZOpsCompressed.from_bytes(c.to_bytes()),
        "encode_quantized": codec.encode_quantized(q, c.shape, c.dtype, c.eps),
        "negate": ops.negate(c),
        "scalar_add": ops.scalar_add(c, 0.5),
        "scalar_subtract": ops.scalar_subtract(c, 0.5),
        "scalar_multiply": ops.scalar_multiply(c, 1.5),
        "add": ops.add(c, c),
        "subtract": ops.subtract(c, c),
        "lazy_empty": lazy(c).materialize(),
        "lazy_affine": lazy(c).negate().scalar_add(0.25).materialize(),
        "lazy_requantize": lazy(c).negate().scalar_multiply(0.5).materialize(),
        "split": parts[1],
        "merge": merge_containers(parts, c.shape),
        "pickle": pickle.loads(pickle.dumps(c)),
    }


def test_every_plane_of_every_container_is_read_only(codec, stream):
    for source, c in _sources(codec, stream).items():
        for name in PLANES:
            plane = getattr(c, name)
            assert not plane.flags.writeable, f"{source}.{name}"
            if plane.size:
                with pytest.raises(ValueError):
                    plane[0] = plane[0]


def test_fields_cannot_be_rebound(stream):
    with pytest.raises(FrozenInstanceError):
        stream.outliers = stream.outliers.copy()  # type: ignore[misc]
    with pytest.raises(FrozenInstanceError):
        stream.eps = 1.0  # type: ignore[misc]


def test_view_of_writable_memory_is_copied_not_aliased(stream):
    scratch = np.concatenate([stream.payload_bytes, np.zeros(8, dtype=np.uint8)])
    c = replace(stream, payload_bytes=scratch[: stream.payload_bytes.size])
    assert not np.shares_memory(c.payload_bytes, scratch)
    before = c.to_bytes()
    scratch[:] = 0xAA
    assert c.to_bytes() == before == stream.to_bytes()
    assert scratch.flags.writeable  # the caller's buffer is left alone


def test_owned_planes_are_frozen_without_a_copy(stream):
    outliers = stream.outliers + 1
    c = replace(stream, outliers=outliers)
    assert c.outliers is outliers and not outliers.flags.writeable


def test_views_of_a_frozen_parent_are_kept(stream):
    for part in split_container(stream, 3):
        for name in PLANES:
            plane = getattr(part, name)
            assert plane.size == 0 or np.shares_memory(plane, getattr(stream, name))


def test_negate_shares_widths_and_payload(stream):
    out = ops.negate(stream)
    assert out.widths is stream.widths
    assert out.payload_bytes is stream.payload_bytes
    assert out.sign_bytes is not stream.sign_bytes


@pytest.mark.parametrize("op", [ops.scalar_add, ops.scalar_subtract])
def test_scalar_shift_shares_every_plane_but_outliers(stream, op):
    out = op(stream, 3.0)
    assert out.widths is stream.widths
    assert out.sign_bytes is stream.sign_bytes
    assert out.payload_bytes is stream.payload_bytes
    assert out.outliers is not stream.outliers


def test_lazy_materialize_shares_like_the_eager_kernels(stream):
    assert lazy(stream).materialize() is stream
    out = lazy(stream).negate().scalar_add(1.0).materialize()
    assert out.widths is stream.widths
    assert out.payload_bytes is stream.payload_bytes
    assert out.to_bytes() == ops.scalar_add(ops.negate(stream), 1.0).to_bytes()


def test_digest_is_memoised_and_matches_a_parsed_copy(stream):
    first = stream.content_fingerprint()
    assert stream.content_fingerprint() is first
    parsed = SZOpsCompressed.from_bytes(stream.to_bytes())
    assert parsed.content_fingerprint() == first
    assert pickle.loads(pickle.dumps(stream)).content_fingerprint() == first
    assert "_fingerprint" not in repr(stream)


_STEPS = st.sampled_from(
    ["negation", "scalar_add", "scalar_subtract", "scalar_multiply", "mean", "block_means"]
)


@given(
    steps=st.lists(st.tuples(_STEPS, st.floats(-4.0, 4.0)), max_size=6),
    fused=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_op_sequences_never_change_their_input(steps, fused):
    rng = np.random.default_rng(len(steps))
    data = np.cumsum(rng.normal(scale=1e-2, size=2000))
    data[500:900] = 1.0  # constant blocks
    c = SZOps(block_size=64).compress(data, 1e-3)
    blob, digest = c.to_bytes(), c.content_fingerprint()
    current: SZOpsCompressed | object = lazy(c) if fused else c
    for name, scalar in steps:
        scalar = None if name == "negation" else scalar
        try:
            if fused:
                if name in ("mean", "block_means"):
                    current.mean()  # type: ignore[union-attr]
                else:
                    current = current.apply(name, scalar)  # type: ignore[union-attr]
            elif name == "mean":
                ops.mean(current)  # type: ignore[arg-type]
            elif name == "block_means":
                ops.block_means(current)  # type: ignore[arg-type]
            else:
                current = ops.apply_operation(current, name, scalar)  # type: ignore[arg-type]
        except OperationError:
            break
    if fused:
        try:
            current.materialize()  # type: ignore[union-attr]
        except OperationError:
            pass
    assert c.to_bytes() == blob
    assert c.content_fingerprint() == digest
    fresh = SZOpsCompressed.from_bytes(blob)
    assert fresh.content_fingerprint() == digest
