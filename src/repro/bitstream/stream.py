"""Byte-oriented stream writer/reader for container serialization.

The compressed containers in this repository (SZOps, SZp, SZ2/SZ3, SZx,
ZFP-class) all serialize to a single contiguous byte buffer with a small
header followed by sections.  :class:`ByteWriter` and :class:`ByteReader`
implement that framing: fixed-width scalar fields, length-prefixed NumPy
array planes, and raw byte sections.  All multi-byte scalars are
little-endian.

These classes deliberately stay at *byte* granularity; sub-byte packing is
done with :mod:`repro.bitstream.bitpack` and the resulting byte buffers are
written here as opaque sections.
"""

from __future__ import annotations

import struct

from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = ["ByteWriter", "ByteReader", "StreamFormatError", "StreamTruncated"]


class StreamFormatError(ValueError):
    """Raised when a serialized container fails structural validation."""


class StreamTruncated(StreamFormatError):
    """A read needed more bytes than remain.

    ``what`` names the field being read, ``needed`` is the byte count it
    asked for and ``offset`` is where the read started, so a stream
    verifier can report the truncation without re-deriving where it is.
    """

    def __init__(self, what: str, needed: int, offset: int, remaining: int) -> None:
        super().__init__(
            f"truncated stream: {what} needs {needed} bytes at offset {offset}, "
            f"have {remaining}"
        )
        self.what = what
        self.needed = needed
        self.offset = offset


class ByteWriter:
    """Accumulates sections and scalars into one contiguous byte buffer."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self._size = 0

    def tell(self) -> int:
        """Number of bytes written so far."""
        return self._size

    def _append(self, raw: bytes) -> None:
        self._parts.append(raw)
        self._size += len(raw)

    def write_bytes(
        self, raw: bytes | bytearray | memoryview | npt.NDArray[Any]
    ) -> None:
        """Write a raw byte section verbatim."""
        if isinstance(raw, np.ndarray):
            raw = np.ascontiguousarray(raw, dtype=np.uint8).tobytes()
        self._append(bytes(raw))

    def write_u8(self, value: int) -> None:
        self._append(struct.pack("<B", value))

    def write_u32(self, value: int) -> None:
        self._append(struct.pack("<I", value))

    def write_u64(self, value: int) -> None:
        self._append(struct.pack("<Q", value))

    def write_i64(self, value: int) -> None:
        self._append(struct.pack("<q", value))

    def write_f64(self, value: float) -> None:
        self._append(struct.pack("<d", value))

    def write_str(self, text: str) -> None:
        """Write a u32-length-prefixed UTF-8 string."""
        raw = text.encode("utf-8")
        self.write_u32(len(raw))
        self._append(raw)

    def write_array(self, arr: npt.NDArray[Any]) -> None:
        """Write a length-prefixed array plane (dtype + nbytes + data)."""
        a = np.ascontiguousarray(arr)
        self.write_str(a.dtype.str)
        self.write_u64(a.size)
        self._append(a.tobytes())

    def getvalue(self) -> bytes:
        """Concatenate all written sections into the final buffer."""
        return b"".join(self._parts)


class ByteReader:
    """Sequential reader mirroring :class:`ByteWriter`."""

    def __init__(
        self, buf: bytes | bytearray | memoryview | npt.NDArray[Any]
    ) -> None:
        if isinstance(buf, np.ndarray):
            buf = np.ascontiguousarray(buf, dtype=np.uint8).tobytes()
        self._buf = memoryview(bytes(buf))
        self._pos = 0

    def tell(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._buf) - self._pos

    def _take(self, n: int, what: str) -> memoryview:
        if n < 0 or self._pos + n > len(self._buf):
            raise StreamTruncated(what, n, self._pos, self.remaining())
        view = self._buf[self._pos : self._pos + n]
        self._pos += n
        return view

    def read_bytes(self, n: int, what: str = "section") -> bytes:
        return bytes(self._take(n, what))

    def read_u8(self, what: str = "u8") -> int:
        return int(struct.unpack("<B", self._take(1, what))[0])

    def read_u32(self, what: str = "u32") -> int:
        return int(struct.unpack("<I", self._take(4, what))[0])

    def read_u64(self, what: str = "u64") -> int:
        return int(struct.unpack("<Q", self._take(8, what))[0])

    def read_i64(self, what: str = "i64") -> int:
        return int(struct.unpack("<q", self._take(8, what))[0])

    def read_f64(self, what: str = "f64") -> float:
        return float(struct.unpack("<d", self._take(8, what))[0])

    def read_str(self) -> str:
        n = self.read_u32("string length")
        return bytes(self._take(n, "string")).decode("utf-8")

    def read_array(self) -> npt.NDArray[Any]:
        dtype = np.dtype(self.read_str())
        size = self.read_u64()
        raw = self._take(size * dtype.itemsize, "array")
        return np.frombuffer(raw, dtype=dtype).copy()

    def expect_end(self) -> None:
        """Assert the whole buffer was consumed."""
        if self.remaining():
            raise StreamFormatError(
                f"{self.remaining()} trailing bytes after container payload"
            )
