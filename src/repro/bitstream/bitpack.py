"""Vectorized bit-level packing primitives.

Every codec in this repository (the SZOps core, the SZp baseline, Huffman,
the ZFP-class embedded coder) stores data at sub-byte granularity.  This
module provides the shared NumPy kernels: converting unsigned integers to and
from MSB-first bit arrays, packing bit arrays into byte buffers, and the
ragged gather/scatter index construction used to place variable-width block
payloads into a single contiguous bitstream without per-block Python loops.

Conventions
-----------
* Bit arrays are ``uint8`` arrays holding 0/1 values, one element per bit.
* Bit order is MSB-first, matching ``numpy.packbits(..., bitorder="big")``:
  bit 0 of the array becomes the most-significant bit of byte 0.
* Integer values are packed MSB-first within their field, so a value packed
  at width ``w`` occupies exactly ``w`` bits and round-trips losslessly as
  long as ``value < 2**w``.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = [
    "bit_width",
    "max_bit_width",
    "bits_of",
    "uints_from_bits",
    "pack_bits",
    "unpack_bits",
    "pack_uints",
    "unpack_uints",
    "ragged_arange",
    "exclusive_cumsum",
]


def bit_width(values: npt.ArrayLike) -> npt.NDArray[np.uint8]:
    """Return the number of bits needed to represent each unsigned value.

    ``bit_width(0) == 0`` by convention (a zero needs no payload bits), and
    ``bit_width(v) == floor(log2(v)) + 1`` otherwise.  Works elementwise on
    any unsigned (or non-negative signed) integer array.
    """
    v = np.asarray(values)
    if v.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if np.issubdtype(v.dtype, np.signedinteger):
        if v.size and int(v.min()) < 0:
            raise ValueError("bit_width expects non-negative values")
        v = v.astype(np.uint64)
    if v.size == 1:
        # Scalar fast path: int.bit_length beats the array ops below.
        return np.full(v.shape, int(v.reshape(-1)[0]).bit_length(), dtype=np.uint8)
    v = v.astype(np.uint64, copy=False)
    # Bit length from the float64 exponent field, which is exact for values
    # below 2**53: a value's high word when it has one (plus 32), else the
    # value itself — both below 2**32.
    high = v >> np.uint64(32)
    wide = high != 0
    word = np.where(wide, high, v)
    # The exponent field of x >= 1 is floor(log2 x) + 1023; that of 0 is 0.
    out = (word.astype(np.float64).view(np.uint64) >> np.uint64(52)).astype(np.int16)
    out -= 1022
    np.maximum(out, 0, out=out)
    out += wide * np.int16(32)
    return out.astype(np.uint8)


def max_bit_width(values: npt.ArrayLike) -> int:
    """Bit width of the largest magnitude in ``values`` (0 for empty/all-zero)."""
    v = np.asarray(values)
    if v.size == 0:
        return 0
    m = int(np.max(v))
    if m < 0:
        raise ValueError("max_bit_width expects non-negative values")
    return m.bit_length()


def bits_of(values: npt.ArrayLike, width: int) -> npt.NDArray[np.uint8]:
    """Expand unsigned integers into an MSB-first bit array.

    Parameters
    ----------
    values : array of non-negative integers, shape ``(n,)``.
    width : number of bits per value; every value must satisfy
        ``value < 2**width``.

    Returns
    -------
    uint8 array of shape ``(n * width,)`` holding 0/1.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if width == 0:
        if v.size and int(v.max()) != 0:
            raise ValueError("width 0 requires all-zero values")
        return np.zeros(0, dtype=np.uint8)
    if width < 0 or width > 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    if v.size:
        mx = int(v.max())
        if width < 64 and mx >> width:
            raise ValueError(
                f"value {mx} does not fit in {width} bits"
            )
    # Expand via the big-endian byte view + unpackbits (C speed), keeping
    # only the low ``width`` bits of each value.
    nbytes = (width + 7) // 8
    be = v.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes :]
    bits = np.unpackbits(be, axis=1)
    return np.ascontiguousarray(bits[:, nbytes * 8 - width :]).reshape(-1)


def uints_from_bits(bits: npt.ArrayLike, width: int) -> npt.NDArray[np.uint64]:
    """Inverse of :func:`bits_of`: reassemble uint64 values from a bit array."""
    b = np.asarray(bits, dtype=np.uint8)
    if width == 0:
        return np.zeros(0, dtype=np.uint64)
    if b.size % width:
        raise ValueError(
            f"bit array of {b.size} bits is not a multiple of width {width}"
        )
    n = b.size // width
    # Left-pad each value's bits to whole big-endian bytes, packbits along
    # the row axis, then fold the byte columns into uint64 (C speed, no
    # per-bit math; at most 8 whole-array shift-or rounds).
    nbytes = (width + 7) // 8
    pad = nbytes * 8 - width
    if pad:
        mat = np.zeros((n, nbytes * 8), dtype=np.uint8)
        mat[:, pad:] = b.reshape(n, width)
    else:
        mat = b.reshape(n, width)
    # Flat packbits + reshape: identical to axis-wise packing because every
    # row is a whole number of bytes, and ~40x faster in NumPy.
    packed = np.packbits(np.ascontiguousarray(mat).reshape(-1)).reshape(n, nbytes)
    out = packed[:, 0].astype(np.uint64)
    for k in range(1, nbytes):
        out <<= np.uint64(8)
        out |= packed[:, k]
    return out


def pack_bits(bits: npt.ArrayLike) -> npt.NDArray[np.uint8]:
    """Pack a 0/1 bit array into bytes (MSB-first). Pads the tail with zeros."""
    return np.packbits(np.asarray(bits, dtype=np.uint8))


def unpack_bits(
    buf: npt.NDArray[np.uint8] | bytes | bytearray | memoryview,
    nbits: int,
    bit_offset: int = 0,
) -> npt.NDArray[np.uint8]:
    """Unpack ``nbits`` bits starting at ``bit_offset`` from a byte buffer."""
    raw = np.frombuffer(buf, dtype=np.uint8) if isinstance(buf, (bytes, bytearray, memoryview)) else np.asarray(buf, dtype=np.uint8)
    first_byte = bit_offset // 8
    last_byte = (bit_offset + nbits + 7) // 8
    if last_byte > raw.size:
        raise ValueError(
            f"requested bits [{bit_offset}, {bit_offset + nbits}) exceed "
            f"buffer of {raw.size * 8} bits"
        )
    window = np.unpackbits(raw[first_byte:last_byte])
    start = bit_offset - first_byte * 8
    out = window[start : start + nbits]
    if not out.flags.writeable:
        # Guarantee a mutable result even when the expansion is elided for a
        # bytes-backed (read-only) buffer; callers mutate decoded windows
        # in place.
        out = out.copy()
    return out


def pack_uints(values: npt.ArrayLike, width: int) -> npt.NDArray[np.uint8]:
    """Pack unsigned integers at a fixed bit width into a byte buffer."""
    return pack_bits(bits_of(values, width))


def unpack_uints(
    buf: npt.NDArray[np.uint8] | bytes | bytearray | memoryview,
    count: int,
    width: int,
    bit_offset: int = 0,
) -> npt.NDArray[np.uint64]:
    """Unpack ``count`` fixed-width unsigned integers from a byte buffer."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    bits = unpack_bits(buf, count * width, bit_offset)
    return uints_from_bits(bits, width)


def exclusive_cumsum(
    lengths: npt.ArrayLike, dtype: npt.DTypeLike = np.int64
) -> npt.NDArray[Any]:
    """Exclusive prefix sum: ``out[i] = sum(lengths[:i])``."""
    lens = np.asarray(lengths, dtype=dtype)
    out = np.empty(lens.size + 1, dtype=dtype)
    out[0] = 0
    np.cumsum(lens, out=out[1:])
    return out[:-1]


def ragged_arange(
    lengths: npt.ArrayLike, starts: npt.ArrayLike | None = None
) -> npt.NDArray[np.int64]:
    """Concatenate ``arange(l) + s`` for each (length, start) pair, vectorized.

    This is the index kernel behind ragged gather/scatter: with
    ``starts = bit_offsets`` and ``lengths = bits_per_block`` it yields, in a
    single allocation, the global bit index of every payload bit of every
    block — no per-block loop.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.size == 0:
        return np.zeros(0, dtype=np.int64)
    if lens.size and int(lens.min()) < 0:
        raise ValueError("lengths must be non-negative")
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    base = np.repeat(exclusive_cumsum(lens), lens)
    idx = np.arange(total, dtype=np.int64) - base
    if starts is not None:
        s = np.asarray(starts, dtype=np.int64)
        if s.shape != lens.shape:
            raise ValueError("starts must match lengths in shape")
        idx += np.repeat(s, lens)
    return idx
