"""The SZOps compressed container and its serialized stream layout.

The stream layout follows Figure 3 of the paper::

    header | per-block widths | per-block outliers | sign bitmaps | payload

with two properties that distinguish SZOps from SZp (its ancestor) and that
Table VII attributes the ratio advantage to:

* **no per-block byte-length field** — block boundaries inside the sign and
  payload sections are *derived* from the width plane, never stored;
* **outliers reorganized into their own plane** — constant blocks reduce to
  one width byte plus one outlier, with no sign bitmap and no payload.

The in-memory container keeps each section as a NumPy array so that
compressed-domain operations (:mod:`repro.core.ops`) can act on exactly the
data a serialized stream holds.  ``to_bytes`` / ``from_bytes`` round-trip
the container through the single-buffer stream format.

Containers are immutable: every plane is read-only from construction on,
so an operation's result shares the planes it does not change with its
input, and the content digest is computed at most once per container.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.bitstream import ByteReader, ByteWriter
from repro.core.blocks import BlockLayout
from repro.core.config import valid_eps
from repro.core.errors import FormatError

__all__ = ["SZOpsCompressed", "MAGIC"]

MAGIC = b"SZOPS"

_PLANES = ("widths", "outliers", "sign_bytes", "payload_bytes")


def _read_only(plane: np.ndarray) -> np.ndarray:
    """``plane``, frozen in place unless another writer can reach its memory.

    An array that owns its data, or views read-only memory, is frozen
    without a copy; a view of writable memory is copied first.
    """
    base = plane.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray) or (
        base is not None and not memoryview(base).readonly  # type: ignore[arg-type]
    ):
        plane = plane.copy()
    plane.setflags(write=False)
    return plane


@dataclass(frozen=True)
class SZOpsCompressed:
    """An immutable compressed array plus the metadata to operate on it.

    Attributes
    ----------
    shape : original array shape.
    dtype : original array dtype (reconstruction target).
    eps : absolute error bound the stream was produced with.
    block_size : elements per block.
    widths : uint8, one fixed-length bit width per block (0 = constant).
    outliers : int64, one quantized first-value per block.
    sign_bytes : packed sign bitmaps of the non-constant blocks, in block
        order (one bit per element; the block-start bit is always 0).
    payload_bytes : packed fixed-length magnitudes of the non-constant
        blocks, in block order.

    The planes are read-only; build a changed container with
    ``dataclasses.replace`` and new arrays.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    eps: float
    block_size: int
    widths: np.ndarray
    outliers: np.ndarray
    sign_bytes: np.ndarray
    payload_bytes: np.ndarray
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _PLANES:
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def __reduce__(self) -> tuple:
        # Through the constructor, so an unpickled copy is read-only too.
        header = (self.shape, self.dtype, self.eps, self.block_size)
        return type(self), header + tuple(getattr(self, name) for name in _PLANES)

    # ------------------------------------------------------------------ geometry

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout(self.n_elements, self.block_size)

    @property
    def n_blocks(self) -> int:
        return self.layout.n_blocks

    @property
    def constant_mask(self) -> np.ndarray:
        """Boolean mask over blocks: True where the block is constant."""
        return self.widths == 0

    @property
    def n_constant_blocks(self) -> int:
        return int(np.count_nonzero(self.constant_mask))

    @property
    def constant_fraction(self) -> float:
        return self.n_constant_blocks / max(self.n_blocks, 1)

    # ------------------------------------------------------------------ sizes

    @property
    def compressed_nbytes(self) -> int:
        """Exact size of the serialized stream in bytes."""
        return len(self.to_bytes())

    @property
    def original_nbytes(self) -> int:
        return self.n_elements * np.dtype(self.dtype).itemsize

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / max(self.compressed_nbytes, 1)

    # ------------------------------------------------------------------ checks

    def validate_structure(self) -> None:
        """Structural sanity checks; raises :class:`FormatError` on damage."""
        layout = self.layout
        if self.widths.shape != (layout.n_blocks,):
            raise FormatError("width plane does not match block count")
        if self.outliers.shape != (layout.n_blocks,):
            raise FormatError("outlier plane does not match block count")
        if self.widths.size and int(self.widths.max()) > 64:
            raise FormatError("block width exceeds 64 bits")
        sign_bits, payload_bits = layout.section_bits(self.widths)
        if self.sign_bytes.size < (sign_bits + 7) // 8:
            raise FormatError("sign section shorter than the width plane implies")
        if self.payload_bytes.size < (payload_bits + 7) // 8:
            raise FormatError("payload section shorter than the width plane implies")

    def content_fingerprint(self) -> str:
        """Content-addressed identity of the stream (cache key).

        A 128-bit BLAKE2b digest over the header fields (dtype, shape, eps,
        block size) and the four section planes (widths, outliers, signs,
        payload).  Two containers share a fingerprint iff they represent the
        same stream byte for byte, so the decoded-block cache in
        :mod:`repro.runtime.cache` keys on this value and equal-content
        containers share one entry.  The container is immutable, so the
        digest is computed on the first call and stored on the instance;
        every later call is a field read.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.dtype(self.dtype).str.encode())
            h.update(struct.pack(f"<B{len(self.shape)}q", len(self.shape), *self.shape))
            h.update(struct.pack("<dI", self.eps, self.block_size))
            h.update(np.ascontiguousarray(self.widths, dtype=np.uint8))
            h.update(np.ascontiguousarray(self.outliers, dtype=np.int64))
            h.update(np.ascontiguousarray(self.sign_bytes, dtype=np.uint8))
            h.update(np.ascontiguousarray(self.payload_bytes, dtype=np.uint8))
            fingerprint = h.hexdigest()
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    # ------------------------------------------------------------------ serialization

    def to_bytes(self) -> bytes:
        """Serialize to the single-buffer stream of Figure 3."""
        w = ByteWriter()
        w.write_bytes(MAGIC)
        w.write_u8(1)  # format version
        w.write_str(np.dtype(self.dtype).str)
        w.write_u8(len(self.shape))
        for dim in self.shape:
            w.write_u64(dim)
        w.write_f64(self.eps)
        w.write_u32(self.block_size)
        w.write_bytes(np.ascontiguousarray(self.widths, dtype=np.uint8))
        # The outlier plane dominates per-block overhead; narrow it to the
        # smallest integer type that holds every value.
        out = np.ascontiguousarray(self.outliers, dtype=np.int64)
        for cand in (np.int16, np.int32):
            info = np.iinfo(cand)
            if out.size == 0 or (out.min() >= info.min and out.max() <= info.max):
                w.write_array(out.astype(cand))
                break
        else:
            w.write_array(out)
        w.write_u64(int(self.sign_bytes.size))
        w.write_bytes(self.sign_bytes)
        w.write_u64(int(self.payload_bytes.size))
        w.write_bytes(self.payload_bytes)
        return w.getvalue()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SZOpsCompressed":
        """Parse a serialized stream back into a container."""
        r = ByteReader(buf)
        if r.read_bytes(len(MAGIC)) != MAGIC:
            raise FormatError("not an SZOps stream (bad magic)")
        version = r.read_u8()
        if version != 1:
            raise FormatError(f"unsupported SZOps stream version {version}")
        try:
            dtype = np.dtype(r.read_str())
        except TypeError as exc:
            raise FormatError(f"bad dtype field: {exc}") from None
        ndim = r.read_u8()
        shape = tuple(r.read_u64() for _ in range(ndim))
        eps = r.read_f64()
        block_size = r.read_u32()
        # Header sanity against corrupted/hostile streams: the element count
        # must be positive, fit in int64, and be consistent with the buffer.
        n_elements = 1
        for dim in shape:
            n_elements *= dim
            if n_elements <= 0 or n_elements > 2**62:
                raise FormatError(f"implausible shape in header: {shape}")
        if block_size <= 0:
            raise FormatError(f"invalid block size {block_size}")
        if not valid_eps(eps):
            raise FormatError(f"invalid error bound {eps} in header")
        layout = BlockLayout(n_elements, block_size)
        # read_bytes returns private bytes: read-only planes with no copy.
        widths = np.frombuffer(r.read_bytes(layout.n_blocks), dtype=np.uint8)
        outliers = r.read_array().astype(np.int64, copy=False)
        if outliers.size != layout.n_blocks:
            raise FormatError("outlier plane does not match block count")
        n_sign = r.read_u64()
        sign_bytes = np.frombuffer(r.read_bytes(n_sign), dtype=np.uint8)
        n_payload = r.read_u64()
        payload_bytes = np.frombuffer(r.read_bytes(n_payload), dtype=np.uint8)
        r.expect_end()
        container = cls(
            shape=shape,
            dtype=dtype,
            eps=eps,
            block_size=block_size,
            widths=widths,
            outliers=outliers,
            sign_bytes=sign_bytes,
            payload_bytes=payload_bytes,
        )
        container.validate_structure()
        return container
