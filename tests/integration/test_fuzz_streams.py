"""Failure-injection tests: corrupted streams must fail *controlledly*.

A downstream system feeding damaged or truncated SZOps streams into the
decoder must get a :class:`repro.core.errors.SZOpsError`-family exception
(all of which are ``ValueError`` subclasses) or — for payload-only damage —
a decoded array that still honours the container geometry.  It must never
see an uncontrolled ``IndexError`` / ``ZeroDivisionError`` / segfault-style
failure from deep inside the kernels.
"""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SZOps, ops
from repro.core.errors import FormatError
from repro.core.format import SZOpsCompressed

ACCEPTABLE = (ValueError, OverflowError, MemoryError)


@pytest.fixture(scope="module")
def stream_bytes():
    rng = np.random.default_rng(99)
    data = (np.cumsum(rng.normal(size=5000)) * 0.02).astype(np.float32)
    codec = SZOps()
    return codec, bytearray(codec.compress(data, 1e-3).to_bytes())


def try_full_pipeline(codec, buf: bytes):
    """Parse + decompress + one op; return None or raise."""
    c = SZOpsCompressed.from_bytes(buf)
    out = codec.decompress(c)
    assert out.shape == c.shape
    ops.mean(c)


class TestTruncation:
    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_truncated_streams_rejected(self, stream_bytes, frac):
        codec, buf = stream_bytes
        cut = bytes(buf[: int(len(buf) * frac)])
        with pytest.raises(ACCEPTABLE):
            try_full_pipeline(codec, cut)

    def test_empty_stream_rejected(self, stream_bytes):
        codec, _ = stream_bytes
        with pytest.raises(ACCEPTABLE):
            try_full_pipeline(codec, b"")


class TestByteFlips:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_single_byte_flip(self, stream_bytes, seed):
        """Flip one byte anywhere; expect clean failure or valid decode."""
        codec, buf = stream_bytes
        rng = np.random.default_rng(seed)
        mutated = bytearray(buf)
        pos = int(rng.integers(0, len(mutated)))
        mutated[pos] ^= int(rng.integers(1, 256))
        try:
            try_full_pipeline(codec, bytes(mutated))
        except ACCEPTABLE:
            pass  # controlled rejection is fine

    @pytest.mark.parametrize("seed", range(10))
    def test_random_multi_byte_corruption(self, stream_bytes, seed):
        codec, buf = stream_bytes
        rng = np.random.default_rng(1000 + seed)
        mutated = bytearray(buf)
        for _ in range(16):
            mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
        try:
            try_full_pipeline(codec, bytes(mutated))
        except ACCEPTABLE:
            pass

    def test_payload_only_damage_keeps_geometry(self, stream_bytes):
        """Damage confined to the payload decodes to the right shape."""
        codec, buf = stream_bytes
        mutated = bytearray(buf)
        mutated[-1] ^= 0xFF  # last payload byte
        c = SZOpsCompressed.from_bytes(bytes(mutated))
        out = codec.decompress(c)
        assert out.shape == c.shape


class TestHeaderSanity:
    def test_implausible_shape_rejected(self, stream_bytes):
        codec, buf = stream_bytes
        # shape dim is a u64 right after magic+version+dtype-str+ndim
        c = SZOpsCompressed.from_bytes(bytes(buf))
        giant = bytearray(buf)
        # find the 8-byte little-endian encoding of the true length and blow it up
        import struct

        needle = struct.pack("<Q", c.n_elements)
        idx = bytes(giant).find(needle)
        assert idx > 0
        giant[idx : idx + 8] = struct.pack("<Q", 2**63 - 1)
        with pytest.raises(ACCEPTABLE):
            try_full_pipeline(codec, bytes(giant))

    @given(
        dtype_field=st.none() | st.binary(max_size=40),
        edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=6),
        cut=st.none() | st.integers(0, 80),
    )
    def test_hostile_header_is_a_format_error(
        self, stream_bytes, dtype_field, edits, cut
    ):
        """Header damage is refused as a FormatError naming its VS rule.

        Never a bare ValueError, UnicodeDecodeError or truncation error
        from the byte reader.
        """
        _, buf = stream_bytes
        mutated = bytearray(buf)
        if dtype_field is not None:  # the u32-prefixed dtype string at byte 6
            (n,) = struct.unpack_from("<I", mutated, 6)
            mutated[6 : 10 + n] = struct.pack("<I", len(dtype_field)) + dtype_field
        for pos, value in edits:
            mutated[pos] = value
        if cut is not None:
            del mutated[cut:]
        try:
            SZOpsCompressed.from_bytes(bytes(mutated))
        except FormatError as exc:
            assert exc.rule is not None and re.fullmatch("VS00[1-8]", exc.rule)
            assert str(exc).startswith(exc.rule + " ")
