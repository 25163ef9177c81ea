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

The stream grammar is decided here once.  :func:`parse_stream` is the one
walk over a serialized stream: it records a :class:`StreamFinding` (rule
id VS001–VS008, byte offset, message, hint, severity) for every problem.
``from_bytes`` raises its first error as a :class:`FormatError`, and the
``verify-stream`` analysis pass (:mod:`repro.analysis.verify_stream`)
reports all of them.  ``validate_structure`` applies the same width and
section rules to a container built in memory.

Containers are immutable: every plane is read-only from construction on,
so an operation's result shares the planes it does not change with its
input, and the content digest is computed at most once per container.
A container also carries its exact quantized moments once a reduction
has read them; :mod:`repro.runtime.cache` governs when they are valid.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

import numpy as np

from repro.bitstream import ByteReader, ByteWriter, StreamTruncated
from repro.core.blocks import BlockLayout
from repro.core.config import valid_eps
from repro.core.errors import FormatError
from repro.core.moments import QuantizedMoments

__all__ = [
    "SZOpsCompressed",
    "MAGIC",
    "StreamFinding",
    "WIDTH_CAP",
    "parse_stream",
    "stream_dtype",
]

MAGIC = b"SZOPS"
VERSION = 1

_T = TypeVar("_T")

#: Widest block bit width a stream may declare: the decoder's limit (the
#: bitpack kernels unpack at most 64 bits per value).  It does not depend
#: on the dtype: at a small bound the quantized deltas of float16 or
#: float32 data need more bits than the float itself has.
WIDTH_CAP = 64

#: Slack allowed between a declared section size and the minimum the width
#: plane implies, before the extra bytes are flagged (writers may pad).
SECTION_SLACK = 8


def stream_dtype(dtype: Any) -> bool:
    """True for a dtype a stream may carry: float16, float32 or float64.

    Either byte order is accepted.  Long double is refused: its width and
    byte layout depend on the platform, so its stream would not be
    portable.  :meth:`repro.core.compressor.SZOps.compress` and the stream
    walk share this predicate.
    """
    dtype = np.dtype(dtype)
    return dtype.kind == "f" and dtype.itemsize in (2, 4, 8)


@dataclass(frozen=True)
class StreamFinding:
    """One problem found in a serialized stream.

    ``rule`` is the VS rule id, ``offset`` the byte offset it is anchored
    to, and ``severity`` is ``"error"`` (the stream is refused) or
    ``"warning"`` (tolerated, but suspicious).
    """

    rule: str
    offset: int
    message: str
    hint: str = ""
    severity: str = "error"

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def to_error(self) -> FormatError:
        return FormatError(f"{self.rule} {self.message}", rule=self.rule)

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
    #: ``(cache token, moments)``, written and read only by
    #: :meth:`repro.runtime.cache.DecodedBlockCache.get_moments`.
    _moments_memo: tuple[object, QuantizedMoments] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        """Check a container built in memory against the stream rules.

        Plane shapes, the width cap and the section sizes, as
        :func:`parse_stream` checks them in a serialized stream; raises
        the first failure as a :class:`FormatError`.
        """
        layout = self.layout
        for name, plane in (("width", self.widths), ("outlier", self.outliers)):
            if plane.shape != (layout.n_blocks,):
                raise FormatError(
                    f"VS006 {name} plane does not match block count", rule="VS006"
                )
        sign_bits, payload_bits = layout.section_bits(self.widths)
        findings = width_findings(self.widths, 0)
        findings += section_findings("sign", self.sign_bytes.size, sign_bits, 0)
        findings += section_findings(
            "payload", self.payload_bytes.size, payload_bits, 0
        )
        for finding in findings:
            if finding.is_error:
                raise finding.to_error()

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
        w.write_u8(VERSION)
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
        """Parse a serialized stream back into a container.

        Raises the first error :func:`parse_stream` finds as a
        :class:`FormatError` carrying its VS rule id.
        """
        container, findings = parse_stream(buf)
        if container is None:
            raise next(f for f in findings if f.is_error).to_error()
        return container


# ---------------------------------------------------------------- the walk


class StopWalk(Exception):
    """A header problem after which nothing in the stream can be located."""

    def __init__(self, rule: str, offset: int, message: str, hint: str = "") -> None:
        super().__init__(message)
        self.finding = StreamFinding(rule, offset, message, hint)


def run_walk(
    walk: Callable[[ByteReader, list[StreamFinding]], _T], buf: bytes
) -> tuple[_T | None, list[StreamFinding]]:
    """Run ``walk`` over ``buf``; return its result and every finding.

    The result is ``None`` when any finding is an error, a truncation or a
    :class:`StopWalk` included.
    """
    findings: list[StreamFinding] = []
    try:
        result = walk(ByteReader(buf), findings)
    except StreamTruncated as exc:
        findings.append(
            StreamFinding(
                "VS001",
                exc.offset,
                f"truncated stream: {exc.what} needs {exc.needed} more byte(s) "
                f"at offset {exc.offset}",
                hint="the file was cut short in transfer or the header lies "
                "about a section size; re-fetch the stream",
            )
        )
    except StopWalk as stop:
        findings.append(stop.finding)
    else:
        if not any(f.is_error for f in findings):
            return result, findings
    return None, findings


def width_findings(
    widths: np.ndarray, plane_offset: int, cap: int = WIDTH_CAP
) -> list[StreamFinding]:
    """VS005 for every block width above ``cap`` (the first 8 one by one)."""
    if widths.max(initial=0) <= cap:
        return []
    bad = np.flatnonzero(widths > cap)
    findings = [
        StreamFinding(
            "VS005",
            plane_offset + idx,
            f"block {idx} declares bit width {int(widths[idx])}, "
            f"above the {cap}-bit width cap",
            hint="a corrupted width byte; every downstream section "
            "boundary derived from it would be wrong",
        )
        for idx in bad[:8].tolist()  # cap the noise; one bad byte often smears many
    ]
    if bad.size > 8:
        findings.append(
            StreamFinding(
                "VS005",
                plane_offset,
                f"{int(bad.size)} blocks total exceed the {cap}-bit width cap "
                "(first 8 reported individually)",
            )
        )
    return findings


def section_findings(
    name: str, declared: int, implied_bits: int, offset: int
) -> list[StreamFinding]:
    """VS006 when a declared section size disagrees with the width plane.

    Shorter than the ``implied_bits`` need is an error; more than
    :data:`SECTION_SLACK` bytes longer is a warning.
    """
    implied = (implied_bits + 7) // 8
    if declared < implied:
        return [
            StreamFinding(
                "VS006",
                offset,
                f"{name} section declares {declared} byte(s) but the width "
                f"plane implies at least {implied}",
                hint="the block count / width plane and the section size "
                "disagree; one of them is corrupt",
            )
        ]
    if declared > implied + SECTION_SLACK:
        return [
            StreamFinding(
                "VS006",
                offset,
                f"{name} section declares {declared} byte(s), "
                f"{declared - implied} more than the width plane implies",
                hint="unexpected padding; tolerated but suspicious",
                severity="warning",
            )
        ]
    return []


def declared_size(r: ByteReader, what: str) -> int:
    """Read a declared u64 size; :class:`StopWalk` (VS007) if unusable.

    A corrupted size with the top bit set reads as an offset that *moves
    backwards* once interpreted as signed int64 — the classic
    non-monotonic-offset corruption.
    """
    at = r.tell()
    raw = r.read_u64(f"{what} size")
    if raw >= 1 << 63:
        raise StopWalk(
            "VS007",
            at,
            f"declared {what} size {raw:#x} is negative as signed int64; "
            "the derived section offset table is non-monotonic",
            "a corrupted or hostile size field; reject the stream",
        )
    return raw


def trailing_findings(r: ByteReader, hint: str = "") -> list[StreamFinding]:
    """VS008 when bytes follow the last section."""
    if not r.remaining():
        return []
    message = f"{r.remaining()} trailing byte(s) after the container payload"
    return [StreamFinding("VS008", r.tell(), message, hint)]


def _read_dtype(r: ByteReader, what: str) -> np.dtype:
    """A length-prefixed dtype string; :class:`StopWalk` (VS004) if unusable."""
    at = r.tell()
    raw = r.read_bytes(r.read_u32(f"{what} length"), what)
    try:
        return np.dtype(raw.decode("utf-8"))
    except (TypeError, ValueError):  # UnicodeDecodeError is a ValueError
        text = raw.decode("utf-8", errors="replace")
        raise StopWalk("VS004", at, f"undecodable {what} {text!r}") from None


def _walk(r: ByteReader, findings: list[StreamFinding]) -> SZOpsCompressed:
    """Read one stream, appending the findings that do not stop it.

    Header problems raise :class:`StopWalk`, since nothing after them can
    be located.  Width and section-size problems are recorded and the
    walk goes on, so the verifier reports every one of them.
    """
    magic = r.read_bytes(len(MAGIC), "magic")
    if magic != MAGIC:
        message = f"bad magic {magic!r}; not an SZOps stream"
        raise StopWalk("VS002", 0, message, f"expected {MAGIC!r}")
    at = r.tell()
    version = r.read_u8("version")
    if version != VERSION:
        raise StopWalk(
            "VS003",
            at,
            f"unsupported SZOps stream version {version}",
            "only version 1 exists; a corrupt byte or a stream from a future writer",
        )
    at = r.tell()
    dtype = _read_dtype(r, "dtype field")
    if not stream_dtype(dtype):
        raise StopWalk(
            "VS004",
            at,
            f"dtype {dtype.str!r} is not a 2-, 4- or 8-byte float",
            "SZOps streams carry float16/float32/float64 data only",
        )
    at = r.tell()
    ndim = r.read_u8("ndim")
    shape = tuple(r.read_u64(f"dim {i}") for i in range(ndim))
    n_elements = math.prod(shape)
    if not 0 < n_elements <= 2**62:
        raise StopWalk("VS004", at, f"implausible shape in header: {shape}")
    at = r.tell()
    eps = r.read_f64("eps")
    if not valid_eps(eps):
        raise StopWalk("VS004", at, f"invalid error bound {eps} in header")
    at = r.tell()
    block_size = r.read_u32("block size")
    if block_size == 0:
        raise StopWalk("VS004", at, f"invalid block size {block_size}")

    # Every size below is read before anything is sized by the header, so
    # a hostile header fails as a truncation, never as an allocation.
    layout = BlockLayout(n_elements, block_size)
    plane_offset = r.tell()
    widths = np.frombuffer(r.read_bytes(layout.n_blocks, "width plane"), dtype=np.uint8)
    findings += width_findings(widths, plane_offset)

    # Outlier plane: dtype + declared count + data (write_array framing).
    at = r.tell()
    out_dtype = _read_dtype(r, "outlier dtype")
    if out_dtype.kind != "i":
        raise StopWalk(
            "VS004", at, f"outlier plane dtype {out_dtype.str!r} is not signed integer"
        )
    at = r.tell()
    out_count = declared_size(r, "outlier plane")
    if out_count != layout.n_blocks:
        raise StopWalk(
            "VS006",
            at,
            f"outlier plane declares {out_count} entries but the header implies "
            f"{layout.n_blocks} blocks ({n_elements} elements / block size "
            f"{block_size})",
            "declared block count and payload geometry disagree",
        )
    raw = r.read_bytes(out_count * out_dtype.itemsize, "outlier plane data")
    outliers = np.frombuffer(raw, dtype=out_dtype).astype(np.int64, copy=False)

    # Sign and payload sections, sized from whole-plane counts.
    sections: list[np.ndarray] = []
    for name, bits in zip(("sign", "payload"), layout.section_bits(widths)):
        at = r.tell()
        size = declared_size(r, name)
        findings += section_findings(name, size, bits, at)
        # read_bytes returns private bytes: read-only planes with no copy.
        sections.append(np.frombuffer(r.read_bytes(size, f"{name} section"), np.uint8))
    findings += trailing_findings(
        r,
        "either the stream was concatenated with something else or a section "
        "size field was corrupted downwards",
    )
    return SZOpsCompressed(
        shape=shape,
        dtype=dtype,
        eps=eps,
        block_size=block_size,
        widths=widths,
        outliers=outliers,
        sign_bytes=sections[0],
        payload_bytes=sections[1],
    )


def parse_stream(buf: bytes) -> tuple[SZOpsCompressed | None, list[StreamFinding]]:
    """Walk a serialized stream once: its container and every finding.

    The container is ``None`` when any finding is an error.  A clean
    stream records no findings and does no per-block Python work.
    """
    return run_walk(_walk, buf)
