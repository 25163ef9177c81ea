"""Pluggable width-specialized bitpack kernels for the BF hot path.

The blockwise fixed-length (BF) stage packs every delta magnitude of a block
at the block's fixed bit width.  ``repro.bitstream.bitpack`` does this by
expanding each value into a per-bit ``uint8`` array (``bits_of`` →
``np.unpackbits`` → scatter) — correct, but an 8–64× memory blow-up per
payload bit.  This module provides a registry of interchangeable kernel
variants behind one :class:`BitpackKernel` interface:

``bitarray``
    The existing per-bit reference path (delegates to ``bitpack``).  Kept as
    the oracle every other variant is differentially tested against.
``wordpack``
    A byte/word-level shift-or kernel that packs fixed-width uints directly
    into ``uint64`` lanes with width-specialized fast paths — no per-bit
    expansion.  See the *Wordpack design* section below.
``numba``
    An optional JIT variant (extras group ``[speed]``) behind a soft import;
    :func:`resolve_kernel` silently falls back to ``wordpack`` when numba is
    not installed.

Every kernel produces **bit-identical** byte streams: values are packed
MSB-first within their field, matching ``numpy.packbits(bitorder="big")``,
so a value packed at width ``w`` round-trips whenever ``value < 2**w``.

Wordpack design
---------------
*Pack* merges adjacent value pairs in a tree (``(a << W) | b``), doubling
the lane width ``W`` until it is a multiple of 8 (then a big-endian byte
view emits the stream directly) or until the doubled width would no longer
fit the 64-bit shift window (``2W > 57``), in which case lanes are scattered
into the output at ``m = 8/gcd(W, 8)`` bit *phases*: all lanes of a phase
share the same intra-byte shift, so each phase is one vectorized shift + OR
over strided 8-byte windows.

*Unpack* is width-dispatched: byte-multiple widths use dtype views
(``>u2``/``>u4``/``>u8``) or strided byte folds; widths whose packing cycle
``lcm(w, 8)`` fits a single ``uint64`` lane (``w/gcd(w,8) < 8`` bytes) use
one gather plus ``m`` shift-mask extractions; the remaining widths ≤ 57 use
per-phase strided window gathers.  Widths 58–63 that are not byte-multiples
cannot use a 64-bit shift window and fall back to the reference path.
Every unpack path emits :func:`narrow_dtype` values
(:meth:`BitpackKernel.unpack_uints_narrow`); :meth:`~BitpackKernel.unpack_uints`
widens them to ``uint64`` once, at its public boundary.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np
import numpy.typing as npt

from repro.bitstream import bitpack

__all__ = [
    "BitpackKernel",
    "BitarrayKernel",
    "WordpackKernel",
    "NumbaKernel",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
    "numba_available",
    "narrow_dtype",
    "AUTO_KERNEL",
    "SMALL_INPUT_CUTOFF",
]

BufLike = npt.NDArray[np.uint8] | bytes | bytearray | memoryview

#: Sentinel kernel name: dispatch on width/size (see :func:`resolve_kernel`).
AUTO_KERNEL = "auto"

#: Below this element count the per-call NumPy overhead of the wordpack
#: merge tree exceeds its bandwidth win; ``auto`` picks the reference path.
SMALL_INPUT_CUTOFF = 32

_U64 = np.uint64
# Lane order of the uint32 halves of a uint64 view depends on host endianness.
_NP_LITTLE = bool(np.little_endian)


#: ``narrow_dtype`` by width; the decode loop asks several times per group.
_NARROW = tuple(
    np.dtype(f"u{1 if w <= 8 else 2 if w <= 16 else 4 if w <= 32 else 8}")
    for w in range(66)
)


def narrow_dtype(width: int) -> np.dtype[Any]:
    """Narrowest unsigned dtype holding ``width`` bits (cuts write traffic)."""
    return _NARROW[min(width, 65)]


def _as_byte_array(buf: BufLike) -> npt.NDArray[np.uint8]:
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return np.frombuffer(buf, dtype=np.uint8)
    return np.asarray(buf, dtype=np.uint8)


class BitpackKernel(ABC):
    """Interface every bitpack kernel variant implements.

    The contract is byte-for-byte equality with the reference
    ``bitpack.pack_uints`` / ``bitpack.unpack_uints`` pair for all widths in
    ``[0, 64]``, all input sizes (including empty), and all in-range values.
    """

    #: Registry name of the variant.
    name: str = ""

    @abstractmethod
    def pack_uints(
        self, values: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint8]:
        """Pack unsigned integers at a fixed bit width into a byte buffer."""

    @abstractmethod
    def unpack_uints(
        self, buf: BufLike, count: int, width: int, bit_offset: int = 0
    ) -> npt.NDArray[np.uint64]:
        """Unpack ``count`` fixed-width unsigned integers from a byte buffer."""

    def unpack_uints_narrow(
        self, buf: BufLike, count: int, width: int, bit_offset: int = 0
    ) -> npt.NDArray[np.unsignedinteger[Any]]:
        """:meth:`unpack_uints` in ``narrow_dtype(width)``.

        Returns a fresh, writable, native-endian array, so callers may
        transform it in place.  Default: unpack, then narrow.
        """
        return self.unpack_uints(buf, count, width, bit_offset).astype(
            narrow_dtype(width), copy=False
        )

    def bits_of(
        self, values: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint8]:
        """Expand values into an MSB-first 0/1 bit array (reference impl)."""
        return bitpack.bits_of(values, width)

    def uints_from_bits(
        self, bits: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint64]:
        """Inverse of :meth:`bits_of` (reference impl)."""
        return bitpack.uints_from_bits(bits, width)


class BitarrayKernel(BitpackKernel):
    """Per-bit reference kernel: the original ``bitpack`` path, unchanged."""

    name = "bitarray"

    def pack_uints(
        self, values: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint8]:
        return bitpack.pack_uints(values, width)

    def unpack_uints(
        self, buf: BufLike, count: int, width: int, bit_offset: int = 0
    ) -> npt.NDArray[np.uint64]:
        return bitpack.unpack_uints(buf, count, width, bit_offset)


def _validate_width_values(
    v: npt.NDArray[np.unsignedinteger[Any]], width: int
) -> None:
    if width < 0 or width > 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    if v.size == 0:
        return
    mx = int(v.max())
    if width == 0:
        if mx != 0:
            raise ValueError("width 0 requires all-zero values")
    elif width < 64 and mx >> width:
        raise ValueError(f"value {mx} does not fit in {width} bits")


class WordpackKernel(BitpackKernel):
    """Byte/word-level shift-or kernel (no per-bit expansion)."""

    name = "wordpack"

    # -- pack ------------------------------------------------------------

    def pack_uints(
        self, values: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint8]:
        v = np.ascontiguousarray(values)
        narrow = v.dtype == np.uint32
        if not narrow:
            v = np.ascontiguousarray(v, dtype=np.uint64)
        _validate_width_values(v, width)
        n = v.size
        if width == 0 or n == 0:
            return np.zeros(0, dtype=np.uint8)
        nbytes = (n * width + 7) // 8
        w_lane = width
        if width <= 16:
            # Narrow-lane start: widths up to 16 merge inside uint32 lanes
            # first (identical arithmetic, half the memory traffic of the
            # uint64 tree).  A uint32 input is used as-is; uint64 lanes
            # contribute their low words through a strided view.
            if narrow:
                work32 = v
            elif _NP_LITTLE:
                work32 = v.view(np.uint32)[0::2]
            else:
                work32 = v.view(np.uint32)[1::2]
            while w_lane % 8 != 0 and 2 * w_lane <= 32:
                if work32.size % 2:
                    work32 = np.concatenate([work32, np.zeros(1, dtype=np.uint32)])
                work32 = (work32[0::2] << np.uint32(w_lane)) | work32[1::2]
                w_lane *= 2
            if w_lane % 8 == 0:
                out32: npt.NDArray[np.uint8] = _lanes_to_bytes(work32, w_lane)[:nbytes]
                return out32
            work = work32.astype(np.uint64)
        elif narrow:  # uint32 input at widths above 16: widen once
            work = v.astype(np.uint64)
        else:
            work = v
        # Tree-merge adjacent pairs while the doubled lane width is still a
        # non-byte-multiple that fits the 64-bit shift window.  The bound is
        # 57 because the phase path below shifts by ``64 - s - W`` with the
        # intra-byte shift ``s <= 7``: ``s + W <= 64`` needs ``W <= 57``.
        while w_lane % 8 != 0 and 2 * w_lane <= 57:
            if work.size % 2:
                work = np.concatenate([work, np.zeros(1, dtype=np.uint64)])
            work = (work[0::2] << _U64(w_lane)) | work[1::2]
            w_lane *= 2
        if w_lane % 8 == 0:
            out: npt.NDArray[np.uint8] = _lanes_to_bytes(work, w_lane)[:nbytes]
            return out
        if w_lane > 57:  # widths 58..63: no 64-bit shift window; reference
            return bitpack.pack_uints(v, width)
        return _phase_scatter(work, w_lane, nbytes)

    # -- unpack ----------------------------------------------------------

    def unpack_uints(
        self, buf: BufLike, count: int, width: int, bit_offset: int = 0
    ) -> npt.NDArray[np.uint64]:
        # The one widening step; every path below decodes narrow.
        return self.unpack_uints_narrow(buf, count, width, bit_offset).astype(
            np.uint64, copy=False
        )

    def unpack_uints_narrow(
        self, buf: BufLike, count: int, width: int, bit_offset: int = 0
    ) -> npt.NDArray[np.unsignedinteger[Any]]:
        if width < 0 or width > 64:
            raise ValueError(f"width must be in [0, 64], got {width}")
        cdt = narrow_dtype(width)
        if width == 0 or count == 0:
            return np.zeros(count, dtype=cdt)
        if bit_offset % 8:  # sub-byte stream offsets stay on the bit path
            return bitpack.unpack_uints(buf, count, width, bit_offset).astype(
                cdt, copy=False
            )
        raw = _as_byte_array(buf)[bit_offset // 8 :]
        nbytes = (count * width + 7) // 8
        if raw.size < nbytes:
            raise ValueError(
                f"requested {count} values of width {width} exceed buffer "
                f"of {raw.size} bytes"
            )
        if width == 1:
            return np.unpackbits(raw[:nbytes])[:count]
        if width % 8 == 0:
            return _unpack_bytemult(raw, count, width, nbytes)
        if width > 57:
            return bitpack.unpack_uints(raw[:nbytes], count, width)
        g = math.gcd(width, 8)
        m, cycle_bytes = 8 // g, width // g
        if cycle_bytes < 8:
            return _unpack_cycle_lane(raw, count, width, m, cycle_bytes, nbytes)
        return _unpack_phase_gather(raw, count, width, m, cycle_bytes, nbytes)

    # -- bit-granular interface (scatter paths, Huffman) -----------------

    def bits_of(
        self, values: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint8]:
        # pack_uints emits the exact MSB-first bit stream, so expanding its
        # bytes is equivalent to the reference per-value expansion and
        # inherits the word-level pack speedup.
        v = np.ascontiguousarray(values, dtype=np.uint64)
        packed = self.pack_uints(v, width)
        return np.unpackbits(packed)[: v.size * width]

    def uints_from_bits(
        self, bits: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint64]:
        b = np.asarray(bits, dtype=np.uint8)
        if width == 0:
            return np.zeros(0, dtype=np.uint64)
        if b.size % width:
            raise ValueError(
                f"bit array of {b.size} bits is not a multiple of width {width}"
            )
        return self.unpack_uints(np.packbits(b), b.size // width, width)


def _lanes_to_bytes(
    work: npt.NDArray[np.unsignedinteger[Any]], w_lane: int
) -> npt.NDArray[np.uint8]:
    """Big-endian bytes of the low ``w_lane`` bits of each lane (w_lane % 8 == 0).

    Lanes may be uint64 or (narrow tree) uint32; the byte stream is the same.
    """
    k = w_lane // 8
    if k == work.dtype.itemsize:
        return np.ascontiguousarray(work).byteswap().view(np.uint8)
    if k == 1:
        return work.astype(np.uint8)
    if k in (2, 4):
        return work.astype(">u2" if k == 2 else ">u4").view(np.uint8)
    # k in {3, 5, 6, 7}: strided byte-column writes, one pass per byte.
    shift = work.dtype.type
    out = np.empty(work.size * k, dtype=np.uint8)
    for i in range(k):
        out[i::k] = (work >> shift(8 * (k - 1 - i))).astype(np.uint8)
    return out


def _phase_scatter(
    work: npt.NDArray[np.uint64], w_lane: int, nbytes: int
) -> npt.NDArray[np.uint8]:
    """Scatter lanes of a non-byte-multiple width (<= 57) into the stream.

    Lanes whose index is congruent mod ``m`` share the same intra-byte shift
    ``s`` and a constant byte stride, so each of the ``m`` phases is one
    vectorized shift + OR over non-overlapping strided 8-byte windows.
    """
    g = math.gcd(w_lane, 8)
    m, cycle_bytes = 8 // g, w_lane // g
    ncyc = -(-work.size // m)
    # Slack: the last phase's final window starts up to cycle_bytes - 1
    # bytes past the payload and spans 8 bytes.
    out = np.zeros(ncyc * cycle_bytes + cycle_bytes + 8, dtype=np.uint8)
    for j in range(m):
        lanes = work[j::m]
        if lanes.size == 0:
            continue
        pos = j * w_lane
        b0, s = pos >> 3, pos & 7
        win = (lanes << _U64(64 - s - w_lane)).byteswap().view(np.uint8)
        dst = out[b0 : b0 + lanes.size * cycle_bytes].reshape(
            lanes.size, cycle_bytes
        )
        dst[:, :8] |= win.reshape(lanes.size, 8)
    result: npt.NDArray[np.uint8] = out[:nbytes].copy()
    return result


def _unpack_bytemult(
    raw: npt.NDArray[np.uint8], count: int, width: int, nbytes: int
) -> npt.NDArray[np.unsignedinteger[Any]]:
    k = width // 8
    cdt = narrow_dtype(width)
    if k in (1, 2, 4, 8):
        # astype copies (and byte-swaps), so the result never aliases buf.
        return raw[:nbytes].view(f">u{k}").astype(cdt)
    # k in {3, 5, 6, 7}: strided byte-column folds, one pass per byte.
    out = np.zeros(count, dtype=cdt)
    src = raw[:nbytes]
    for i in range(k):
        out |= src[i::k].astype(cdt) << cdt.type(8 * (k - 1 - i))
    return out


def _unpack_cycle_lane(
    raw: npt.NDArray[np.uint8],
    count: int,
    width: int,
    m: int,
    cycle_bytes: int,
    nbytes: int,
) -> npt.NDArray[np.unsignedinteger[Any]]:
    """Whole packing cycle fits one lane: 1 gather, m shift-masks.

    The lane is the narrowest of 1/2/4/8 bytes holding a cycle, so a
    one-byte cycle (widths 2 and 4) never widens past uint8.
    """
    ncyc = -(-count // m)
    lane = narrow_dtype(8 * cycle_bytes)
    L = lane.itemsize
    if nbytes == ncyc * cycle_bytes:
        cycles = raw[:nbytes].reshape(ncyc, cycle_bytes)
    else:
        pad = np.zeros(ncyc * cycle_bytes, dtype=np.uint8)
        pad[:nbytes] = raw[:nbytes]
        cycles = pad.reshape(ncyc, cycle_bytes)
    if L == cycle_bytes:
        src = cycles
    else:
        src = np.zeros((ncyc, L), dtype=np.uint8)
        src[:, :cycle_bytes] = cycles
    acc = np.ascontiguousarray(src).reshape(-1).view(f">u{L}").astype(lane)
    mask = lane.type((1 << width) - 1)
    out = np.empty((ncyc, m), dtype=narrow_dtype(width))
    field = np.empty(ncyc, dtype=lane)
    for j in range(m):
        np.right_shift(acc, lane.type(8 * L - width - j * width), out=field)
        # The masked field fits the narrow column: store it there directly.
        np.bitwise_and(field, mask, out=out[:, j], casting="unsafe")
    return out.reshape(-1)[:count]


def _unpack_phase_gather(
    raw: npt.NDArray[np.uint8],
    count: int,
    width: int,
    m: int,
    cycle_bytes: int,
    nbytes: int,
) -> npt.NDArray[np.unsignedinteger[Any]]:
    """Per-phase strided window gathers (width <= 57, cycle >= 8 bytes).

    A field starts at bit ``s <= 7`` of its window, so 4-byte windows hold
    widths up to 25 and 8-byte windows the rest.
    """
    ncyc = -(-count // m)
    src = np.zeros(ncyc * cycle_bytes + cycle_bytes + 16, dtype=np.uint8)
    src[:nbytes] = raw[:nbytes]
    lane = np.dtype(np.uint32) if width <= 25 else np.dtype(np.uint64)
    L = lane.itemsize
    mask = lane.type((1 << width) - 1)
    # Cycle c's bytes, plus the window overhang of its last phase; the rows
    # overlap, which is safe because they are only read.
    cycles = np.ndarray(
        (ncyc, 2 * cycle_bytes), dtype=np.uint8, buffer=src,
        strides=(cycle_bytes, 1),
    )
    out = np.empty((ncyc, m), dtype=narrow_dtype(width))
    for j in range(m):
        pos = j * width
        b0, s = pos >> 3, pos & 7
        win = np.ascontiguousarray(cycles[:, b0 : b0 + L])
        acc = win.reshape(-1).view(f">u{L}").astype(lane)
        np.right_shift(acc, lane.type(8 * L - s - width), out=acc)
        np.bitwise_and(acc, mask, out=out[:, j], casting="unsafe")
    return out.reshape(-1)[:count]


# --------------------------------------------------------------------------
# optional numba JIT variant (extras group [speed])
# --------------------------------------------------------------------------


def numba_available() -> bool:
    """True when the optional numba dependency can be imported."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


class NumbaKernel(BitpackKernel):
    """JIT-compiled scalar-loop kernel; registered only when numba imports.

    The compiled loops are cached per process on first use, which is what
    the process backend's persistent per-worker kernel state amortizes.
    """

    name = "numba"

    def __init__(self) -> None:
        self._pack_jit: Callable[..., None] | None = None
        self._unpack_jit: Callable[..., None] | None = None

    def _compile(self) -> None:
        if self._pack_jit is not None:
            return
        from numba import njit  # soft import; guarded by numba_available()

        @njit(cache=True)
        def _pack(values, width, out):  # type: ignore[no-untyped-def]
            for i in range(values.size):
                val = values[i]
                base = i * width
                for b in range(width):
                    if (val >> np.uint64(width - 1 - b)) & np.uint64(1):
                        p = base + b
                        out[p >> 3] |= np.uint8(1 << (7 - (p & 7)))

        @njit(cache=True)
        def _unpack(raw, count, width, bit_offset, out):  # type: ignore[no-untyped-def]
            for i in range(count):
                acc = np.uint64(0)
                base = bit_offset + i * width
                for b in range(width):
                    p = base + b
                    bit = (raw[p >> 3] >> np.uint8(7 - (p & 7))) & np.uint8(1)
                    acc = (acc << np.uint64(1)) | np.uint64(bit)
                out[i] = acc

        self._pack_jit = _pack
        self._unpack_jit = _unpack

    def pack_uints(
        self, values: npt.ArrayLike, width: int
    ) -> npt.NDArray[np.uint8]:
        v = np.ascontiguousarray(values, dtype=np.uint64)
        _validate_width_values(v, width)
        if width == 0 or v.size == 0:
            return np.zeros(0, dtype=np.uint8)
        self._compile()
        assert self._pack_jit is not None
        out = np.zeros((v.size * width + 7) // 8, dtype=np.uint8)
        self._pack_jit(v, width, out)
        return out

    def unpack_uints(
        self, buf: BufLike, count: int, width: int, bit_offset: int = 0
    ) -> npt.NDArray[np.uint64]:
        if width < 0 or width > 64:
            raise ValueError(f"width must be in [0, 64], got {width}")
        out = np.zeros(count, dtype=np.uint64)
        if width == 0 or count == 0:
            return out
        raw = _as_byte_array(buf)
        if (bit_offset + count * width + 7) // 8 > raw.size:
            raise ValueError(
                f"requested {count} values of width {width} exceed buffer "
                f"of {raw.size} bytes"
            )
        self._compile()
        assert self._unpack_jit is not None
        self._unpack_jit(raw, count, width, bit_offset, out)
        return out


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_REGISTRY: dict[str, BitpackKernel] = {}


def register_kernel(kernel: BitpackKernel) -> BitpackKernel:
    """Add a kernel variant to the registry (last registration wins)."""
    if not kernel.name:
        raise ValueError("kernel must define a non-empty name")
    _REGISTRY[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> BitpackKernel:
    """Look up a registered kernel by name (no auto dispatch, no fallback)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown bitpack kernel {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def available_kernels() -> tuple[str, ...]:
    """Names of all registered kernel variants."""
    return tuple(sorted(_REGISTRY))


def resolve_kernel(
    kernel: str | BitpackKernel = AUTO_KERNEL,
    *,
    width: int | None = None,
    size: int | None = None,
) -> BitpackKernel:
    """Resolve a kernel request to a concrete variant.

    ``auto`` dispatches on the (optional) width/size hints: tiny inputs and
    widths the wordpack shift window cannot express stay on the reference
    path; everything else gets the fastest registered variant (``numba``
    when installed, else ``wordpack``).  Requesting ``numba`` without numba
    installed silently falls back to ``wordpack`` — kernels are
    bit-identical, so the fallback only affects speed.
    """
    if isinstance(kernel, BitpackKernel):
        return kernel
    if kernel == AUTO_KERNEL:
        if size is not None and size < SMALL_INPUT_CUTOFF:
            return _REGISTRY["bitarray"]
        if width is not None and width > 57 and width % 8:
            return _REGISTRY["bitarray"]
        if "numba" in _REGISTRY:
            return _REGISTRY["numba"]
        return _REGISTRY["wordpack"]
    if kernel == "numba" and "numba" not in _REGISTRY:
        return _REGISTRY["wordpack"]
    return get_kernel(kernel)


register_kernel(BitarrayKernel())
register_kernel(WordpackKernel())
if numba_available():  # pragma: no cover - exercised by the [speed] CI leg
    register_kernel(NumbaKernel())
