"""Container serialization (Figure 3 stream layout) tests."""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest

from repro import SZOps
from repro.analysis import assert_stream_ok
from repro.core.errors import FormatError
from repro.core.format import MAGIC, SZOpsCompressed


@pytest.fixture
def container(codec, smooth_3d):
    return codec.compress(smooth_3d, 1e-4)


def _with_string(buf: bytes, at: int, text: bytes) -> bytes:
    """``buf`` with the u32-length-prefixed string at ``at`` replaced."""
    (old,) = struct.unpack_from("<I", buf, at)
    return buf[:at] + struct.pack("<I", len(text)) + text + buf[at + 4 + old :]


class TestSerialization:
    def test_roundtrip_identical(self, codec, container):
        buf = container.to_bytes()
        parsed = SZOpsCompressed.from_bytes(buf)
        assert parsed.shape == container.shape
        assert parsed.dtype == container.dtype
        assert parsed.eps == container.eps
        assert parsed.block_size == container.block_size
        assert np.array_equal(parsed.widths, container.widths)
        assert np.array_equal(parsed.outliers, container.outliers)
        assert np.array_equal(codec.decompress(parsed), codec.decompress(container))

    def test_roundtrip_is_stable(self, container):
        buf = container.to_bytes()
        assert SZOpsCompressed.from_bytes(buf).to_bytes() == buf

    def test_magic_checked(self, container):
        buf = bytearray(container.to_bytes())
        buf[:5] = b"WRONG"
        with pytest.raises(FormatError, match="magic"):
            SZOpsCompressed.from_bytes(bytes(buf))

    def test_version_checked(self, container):
        buf = bytearray(container.to_bytes())
        buf[len(MAGIC)] = 99
        with pytest.raises(FormatError, match="version"):
            SZOpsCompressed.from_bytes(bytes(buf))

    @pytest.mark.parametrize("eps", [1e308, float("inf"), float("nan"), 0.0])
    def test_header_error_bound_checked(self, container, eps):
        """A header bound whose bin width ``2*eps`` is not finite is refused."""
        buf = container.to_bytes()
        field = struct.pack("<d", container.eps)
        assert buf.count(field) == 1
        doctored = buf.replace(field, struct.pack("<d", eps))
        with pytest.raises(FormatError, match="error bound"):
            SZOpsCompressed.from_bytes(doctored)
        with pytest.raises(FormatError):
            assert_stream_ok(doctored)

    def test_truncation_detected(self, container):
        buf = container.to_bytes()
        with pytest.raises(FormatError, match="^VS001 ") as excinfo:
            SZOpsCompressed.from_bytes(buf[: len(buf) // 2])
        assert excinfo.value.rule == "VS001"

    @pytest.mark.parametrize(
        "field",
        [b"<i4", b"|b1", b"<c16", b"<f16", b"<f\xff", b"(1000000000,1000000000)f8"],
    )
    def test_dtype_field_must_be_a_stream_float(self, container, field):
        doctored = _with_string(container.to_bytes(), len(MAGIC) + 1, field)
        with pytest.raises(FormatError, match="^VS004 ") as excinfo:
            SZOpsCompressed.from_bytes(doctored)
        assert excinfo.value.rule == "VS004"

    @pytest.mark.parametrize("kind", [b"u", b"f"])
    def test_outlier_plane_must_be_signed_integer(self, container, kind):
        buf = container.to_bytes()
        dtype = container.dtype.str.encode()
        at = len(MAGIC) + 1 + 4 + len(dtype) + 1 + 8 * len(container.shape) + 12
        at += container.n_blocks
        (n,) = struct.unpack_from("<I", buf, at)
        field = buf[at + 4 : at + 4 + n]
        assert field[1:2] == b"i"
        doctored = _with_string(buf, at, field[:1] + kind + field[2:])
        with pytest.raises(FormatError, match="^VS004 outlier plane dtype"):
            SZOpsCompressed.from_bytes(doctored)

    @pytest.mark.parametrize("dtype", ["<f2", ">f2", ">f4", "<f8", ">f8"])
    def test_every_stream_float_roundtrips(self, codec, smooth_3d, dtype):
        c = codec.compress(smooth_3d.astype(dtype), 1e-2)
        parsed = SZOpsCompressed.from_bytes(c.to_bytes())
        assert parsed.dtype == np.dtype(dtype)
        assert np.array_equal(codec.decompress(parsed), codec.decompress(c))

    def test_outlier_narrowing(self, codec, rng):
        # small quantized values -> int16 plane; huge -> wider
        small = codec.compress(rng.normal(scale=1e-3, size=1000).astype(np.float32), 1e-3)
        big = codec.compress((rng.normal(size=1000) * 1e6).astype(np.float64), 1e-3)
        assert small.compressed_nbytes < big.compressed_nbytes
        for c in (small, big):
            parsed = SZOpsCompressed.from_bytes(c.to_bytes())
            assert np.array_equal(parsed.outliers, c.outliers)


class TestStructure:
    def test_validate_passes_on_fresh_container(self, container):
        container.validate_structure()

    def test_validate_rejects_wrong_width_count(self, container):
        broken = replace(container, widths=container.widths[:-1])
        with pytest.raises(FormatError):
            broken.validate_structure()

    def test_validate_rejects_short_payload(self, container):
        payload = container.payload_bytes
        broken = replace(container, payload_bytes=payload[: payload.size // 2])
        with pytest.raises(FormatError, match="payload"):
            broken.validate_structure()

    def test_validate_rejects_short_signs(self, container):
        broken = replace(container, sign_bytes=container.sign_bytes[:1])
        with pytest.raises(FormatError, match="sign"):
            broken.validate_structure()

    def test_copy_is_deep(self, container):
        """A plane handed over as a view of writable memory is copied."""
        scratch = np.append(container.outliers, 0)
        dup = replace(container, outliers=scratch[:-1])
        scratch[0] += 1
        assert np.array_equal(dup.outliers, container.outliers)

    def test_geometry_properties(self, codec, smooth_3d):
        c = codec.compress(smooth_3d, 1e-4)
        assert c.n_elements == smooth_3d.size
        assert c.n_blocks == (smooth_3d.size + c.block_size - 1) // c.block_size
        sign_bits, _ = c.layout.section_bits(c.widths)
        assert sign_bits + (
            c.layout.lengths()[c.constant_mask].sum()
        ) == smooth_3d.size
