"""Blockwise fixed-length encoding (the BF stage).

Each stored block records every delta magnitude at the same bit width — the
width of the block's largest magnitude.  A width of zero marks a *constant
block* (all deltas zero); constant blocks store no sign bitmap and no
payload, which is the optimization behind the reduction speedups of
Table V / Table VI of the paper.

The kernels operate on an arbitrary *selection* of blocks described by
ragged per-block lengths, so the same code serves:

* the compressor (all non-constant blocks of the array),
* scalar multiplication (only the non-constant blocks are decoded,
  multiplied, and re-encoded — constant blocks are transformed in O(1)),
* the thread-parallel executor (contiguous chunks of blocks),
* the SZp / SZx / ZFP-class baselines (with their own alignments).

Vectorization strategy: blocks are sorted by (width, length) — at most a
few dozen distinct pairs — and each group's payload is packed or unpacked
with whole-byte ``packbits``/``unpackbits`` calls plus a byte-granular
scatter/gather.  This *byte fast path* applies whenever every non-final
block's (aligned) payload is a whole number of bytes, which all in-tree
formats guarantee by construction (block sizes are multiples of 8, or the
stream is byte/word aligned).  A bit-granular fallback covers arbitrary
geometries.

``align_bits`` rounds every block's payload up to a multiple of that many
bits.  SZOps always uses 1 (tight packing); SZp passes its 32-bit word
alignment, reproducing the format overhead the paper cites as SZp's
compression-efficiency limitation.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.bitstream import (
    AUTO_KERNEL,
    BitpackKernel,
    bit_width,
    exclusive_cumsum,
    narrow_dtype,
    pack_bits,
    ragged_arange,
    resolve_kernel,
    unpack_bits,
)

__all__ = [
    "block_widths",
    "payload_bit_counts",
    "encode_signs",
    "decode_signs",
    "encode_magnitudes",
    "decode_magnitudes",
    "encode_block_sections",
    "decode_block_sections",
    "decode_stored_deltas",
]


def block_widths(mags: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-block fixed bit width: the bit length of the block's max magnitude.

    ``mags`` is the concatenation of the blocks' delta magnitudes and
    ``lens`` gives each block's element count.
    """
    lens = np.asarray(lens, dtype=np.int64)
    n_blocks = lens.size
    widths = np.zeros(n_blocks, dtype=np.uint8)
    if mags.size == 0:
        return widths
    # Per-block max via reduceat (handles ragged lengths in one call).
    starts = exclusive_cumsum(lens)
    nonempty = lens > 0
    if np.all(nonempty):
        maxima = np.maximum.reduceat(mags, starts)
    else:
        maxima = np.zeros(n_blocks, dtype=mags.dtype)
        maxima[nonempty] = np.maximum.reduceat(mags, starts[nonempty])[
            : int(nonempty.sum())
        ]
    widths[:] = bit_width(maxima)
    return widths


def payload_bit_counts(
    widths: np.ndarray, lens: np.ndarray, align_bits: int = 1
) -> np.ndarray:
    """Bits of payload each block contributes (``width * length``, aligned)."""
    bits = np.asarray(widths, dtype=np.int64) * np.asarray(lens, dtype=np.int64)
    if align_bits > 1:
        bits = -(-bits // align_bits) * align_bits
    return bits


def encode_signs(signs: np.ndarray) -> np.ndarray:
    """Pack a per-element sign array (1 = negative) into a byte buffer."""
    return pack_bits(np.asarray(signs, dtype=np.uint8))


def decode_signs(sign_bytes: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack the leading ``n_bits`` sign bits from a byte buffer."""
    return unpack_bits(sign_bytes, n_bits)


# --------------------------------------------------------------------------
# group-sorted byte fast path
# --------------------------------------------------------------------------


def _grouped_blocks(widths: np.ndarray, lens: np.ndarray):
    """Stable-sort blocks by (width, length) and expose contiguous groups.

    Returns (order, group_bounds) where ``group_bounds`` delimits
    equal-(width, length) runs of ``order``.  Every block inside a group
    shares one width *and one length*, which is what lets the callers
    gather/scatter whole rows instead of building a per-element
    permutation of the concatenated stream (the former ``ragged_arange``
    path cost more than the packing itself on megascale inputs).
    """
    max_len = int(lens.max(initial=0))
    key = widths * (max_len + 1) + lens
    if 64 * (max_len + 1) + max_len <= np.iinfo(np.uint16).max:
        # Narrow keys sort ~3x faster and cover every in-tree geometry
        # (widths <= 64; block sizes far below 1000).
        key = key.astype(np.uint16)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    bounds = np.flatnonzero(np.diff(sorted_key)) + 1
    group_bounds = np.concatenate(([0], bounds, [order.size]))
    return order, group_bounds


def _group_element_index(
    elem_starts: np.ndarray, bsel: np.ndarray, blen: int
) -> np.ndarray:
    """Element indices of a group's blocks (each ``blen`` long) in the stream."""
    return (
        elem_starts[bsel][:, None] + np.arange(blen, dtype=np.int64)[None, :]
    ).reshape(-1)


def _row_byte_index(byte_starts: np.ndarray, row_bytes: int) -> np.ndarray:
    """Byte indices of per-block payload rows; int32 keeps the scatter cheap.

    ``byte_starts`` increase (a group's blocks in stream order), so the
    last one bounds the index.
    """
    if byte_starts.size and int(byte_starts[-1]) + row_bytes < 2**31:
        return (
            byte_starts.astype(np.int32)[:, None]
            + np.arange(row_bytes, dtype=np.int32)[None, :]
        ).reshape(-1)
    return (
        byte_starts[:, None] + np.arange(row_bytes, dtype=np.int64)[None, :]
    ).reshape(-1)


def _as_unsigned_magnitudes(mags: np.ndarray) -> np.ndarray:
    """Contiguous unsigned view of the magnitudes, copy-free where possible.

    ``uint32`` magnitudes (the compressor's narrow representation when every
    block width fits 32 bits) pass through untouched — the kernels accept
    them natively and the halved element size halves the group gathers.
    Signed 64-bit input reinterprets as ``uint64`` (magnitudes are
    non-negative by contract); anything else converts.
    """
    arr = np.ascontiguousarray(mags)
    if arr.dtype == np.uint32 or arr.dtype == np.uint64:
        return arr
    if arr.dtype == np.int64:
        return arr.view(np.uint64)
    return arr.astype(np.uint64)


def _byte_path_ok(block_bits: np.ndarray) -> bool:
    """True when every non-final block's payload is whole bytes."""
    if block_bits.size <= 1:
        return True
    return bool((block_bits[:-1] % 8 == 0).all())


class _BlockRows:
    """Whole-block rows of a flat array laid out as consecutive blocks.

    A (width, length) group moves as rows of a reshaped view over the
    leading run of equal-length blocks (every block of a block layout but
    a ragged tail); any other block goes through a broadcast element index.
    Block selections are increasing, as :func:`_grouped_blocks` emits them.
    """

    def __init__(self, flat: np.ndarray, lens: np.ndarray) -> None:
        self.flat, self.lens = flat, lens
        self.blen = int(lens[0]) if lens.size else 0
        same = lens == self.blen
        self.n_rows = lens.size if bool(same.all()) else int(np.argmin(same))
        self.rows = flat[: self.n_rows * self.blen].reshape(self.n_rows, self.blen)
        self._starts: np.ndarray | None = None

    def _elements(self, bsel: np.ndarray, blen: int) -> np.ndarray | None:
        if blen == self.blen and int(bsel[-1]) < self.n_rows:
            return None
        if self._starts is None:
            self._starts = exclusive_cumsum(self.lens)
        return _group_element_index(self._starts, bsel, blen)

    def take(self, bsel: np.ndarray, blen: int) -> np.ndarray:
        idx = self._elements(bsel, blen)
        if idx is None:
            return self.rows[bsel]
        return self.flat[idx].reshape(bsel.size, blen)

    def put(self, bsel: np.ndarray, blen: int, vals: np.ndarray | int) -> None:
        idx = self._elements(bsel, blen)
        if idx is None:
            self.rows[bsel] = vals
        else:
            self.flat[idx] = np.reshape(vals, -1)


def encode_magnitudes(
    mags: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    align_bits: int = 1,
    kernel: str | BitpackKernel = AUTO_KERNEL,
) -> tuple[np.ndarray, int]:
    """Pack block delta magnitudes at per-block fixed widths.

    Parameters
    ----------
    mags : concatenated non-negative magnitudes of the selected blocks.
    widths : per-block bit widths (zero-width blocks contribute nothing and
        must have all-zero magnitudes).
    lens : per-block element counts.
    align_bits : round each block's payload up to this many bits.
    kernel : bitpack kernel variant (name or instance) for the per-group
        packing; all variants produce bit-identical streams.

    Returns
    -------
    (payload_bytes, total_bits): the packed byte buffer and the number of
    stream bits in it (the final byte may carry zero padding).
    """
    widths64 = np.asarray(widths, dtype=np.int64)
    lens64 = np.asarray(lens, dtype=np.int64)
    block_bits = payload_bit_counts(widths64, lens64, align_bits)
    total_bits = int(block_bits.sum())
    if widths64.size == 0 or total_bits == 0:
        return np.zeros(0, dtype=np.uint8), total_bits
    kern = resolve_kernel(kernel, size=int(lens64.sum()))
    if not _byte_path_ok(block_bits):
        return _encode_magnitudes_bits(mags, widths64, lens64, block_bits, kern)

    offsets = exclusive_cumsum(block_bits)
    total_bytes = (total_bits + 7) // 8
    # Word-padded allocation so whole-word payload rows (the common
    # block-size-multiple-of-8 geometry) scatter as uint64 lanes.
    out_words = np.zeros((total_bytes + 7) // 8, dtype=np.uint64)
    out = out_words.view(np.uint8)[:total_bytes]
    order, bounds = _grouped_blocks(widths64, lens64)
    mags_rows = _BlockRows(_as_unsigned_magnitudes(mags), lens64)
    for g in range(bounds.size - 1):
        g0, g1 = int(bounds[g]), int(bounds[g + 1])
        bsel = order[g0:g1]
        w = int(widths64[bsel[0]])
        blen = int(lens64[bsel[0]])
        nblk = g1 - g0
        n_e = nblk * blen
        if w == 0 or n_e == 0:
            continue
        # Whole rows: blocks of one group share (width, length), so the
        # group's elements gather as rows.
        vals = mags_rows.take(bsel, blen).reshape(-1)
        row_bits = blen * w
        row_bytes = (row_bits + 7) // 8
        if row_bits % 8 == 0 or nblk == 1:
            # Rows are whole bytes (or there is a single ragged row, whose
            # kernel output is already zero-padded to whole bytes): the
            # group packs as one contiguous kernel call.
            packed = kern.pack_uints(vals, w)
        else:
            # Ragged rows under align_bits > 1: pad each row's bit image to
            # whole bytes before packing.
            bits = kern.bits_of(vals, w).reshape(nblk, row_bits)
            padded = np.zeros((nblk, row_bytes * 8), dtype=np.uint8)
            padded[:, :row_bits] = bits
            packed = pack_bits(np.ascontiguousarray(padded).reshape(-1))
        off_bytes = offsets[bsel] >> 3
        flat = packed.reshape(-1)
        if row_bytes % 8 == 0 and not (off_bytes & 7).any():
            out_words[_row_byte_index(off_bytes >> 3, row_bytes >> 3)] = flat.view(
                np.uint64
            )
        else:
            out[_row_byte_index(off_bytes, row_bytes)] = flat
    return out, total_bits


def _decode_groups(
    payload_bytes: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    align_bits: int,
    kern: BitpackKernel,
) -> Iterator[tuple[np.ndarray, int, int, np.ndarray | None]]:
    """The decode direction's one group loop.

    Yields ``(bsel, blen, width, values)`` for every non-empty
    (width, length) group: ``bsel`` are the group's block indices in
    increasing order, ``values`` its magnitudes as an ``(len(bsel), blen)``
    array — fresh, in ``narrow_dtype(width)`` on the byte path (uint64 on
    the bit-granular paths) — or ``None`` for a zero-width group.
    """
    block_bits = payload_bit_counts(widths, lens, align_bits)
    total_bits = int(block_bits.sum())
    buf = (
        np.frombuffer(payload_bytes, dtype=np.uint8)
        if isinstance(payload_bytes, (bytes, bytearray, memoryview))
        else np.asarray(payload_bytes, dtype=np.uint8)
    )
    if buf.size < (total_bits + 7) // 8:
        raise ValueError(
            f"payload of {buf.size} bytes shorter than the width plane "
            f"implies ({(total_bits + 7) // 8} bytes)"
        )
    if widths.size == 0:
        return
    offsets = exclusive_cumsum(block_bits)
    # Arbitrary geometries (a block payload not starting on a byte) gather
    # each group's rows from the expanded bit stream instead of bytes.
    bits = None if _byte_path_ok(block_bits) else unpack_bits(buf, total_bits)
    # Whole-word row gather mirror of the encode-side scatter; only usable
    # when the buffer splits into uint64 lanes exactly.
    buf_words = (
        buf.view(np.uint64)
        if buf.size % 8 == 0 and buf.flags.c_contiguous
        else None
    )
    order, bounds = _grouped_blocks(widths, lens)
    for g in range(bounds.size - 1):
        g0, g1 = int(bounds[g]), int(bounds[g + 1])
        bsel = order[g0:g1]
        w = int(widths[bsel[0]])
        blen = int(lens[bsel[0]])
        nblk = g1 - g0
        n_e = nblk * blen
        if n_e == 0:
            continue
        if w == 0:
            yield bsel, blen, w, None
            continue
        row_bits = blen * w
        if bits is not None:
            idx = offsets[bsel][:, None] + np.arange(row_bits, dtype=np.int64)[None, :]
            vals = kern.uints_from_bits(bits[idx.reshape(-1)], w)
            yield bsel, blen, w, vals.reshape(nblk, blen)
            continue
        row_bytes = (row_bits + 7) // 8
        off_bytes = offsets[bsel] >> 3
        if buf_words is not None and row_bytes % 8 == 0 and not (off_bytes & 7).any():
            rows = buf_words[_row_byte_index(off_bytes >> 3, row_bytes >> 3)].view(
                np.uint8
            )
        else:
            rows = buf[_row_byte_index(off_bytes, row_bytes)]
        if row_bits % 8 == 0 or nblk == 1:
            vals = kern.unpack_uints_narrow(rows, n_e, w)
        else:
            bit_rows = np.unpackbits(rows).reshape(nblk, row_bytes * 8)[:, :row_bits]
            vals = kern.uints_from_bits(np.ascontiguousarray(bit_rows).reshape(-1), w)
        yield bsel, blen, w, vals.reshape(nblk, blen)


def decode_magnitudes(
    payload_bytes: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    align_bits: int = 1,
    kernel: str | BitpackKernel = AUTO_KERNEL,
) -> np.ndarray:
    """Inverse of :func:`encode_magnitudes`.

    Returns the concatenated magnitudes (uint64) of the selected blocks,
    with zero-width blocks expanded to zeros.
    """
    widths64 = np.asarray(widths, dtype=np.int64)
    lens64 = np.asarray(lens, dtype=np.int64)
    out = np.empty(int(lens64.sum()), dtype=np.uint64)
    rows = _BlockRows(out, lens64)
    kern = resolve_kernel(kernel, size=out.size)
    for bsel, blen, _w, vals in _decode_groups(
        payload_bytes, widths64, lens64, align_bits, kern
    ):
        rows.put(bsel, blen, 0 if vals is None else vals)
    return out


#: Per width: a signed dtype of at least ``width + 1`` bits (int64 above 31).
_SIGNED = tuple(np.dtype(f"i{narrow_dtype(w + 1).itemsize}") for w in range(65))


def _decode_signed(
    out: np.ndarray,
    sign_bytes: np.ndarray,
    payload_bytes: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    sign_owners: np.ndarray | None,
    align_bits: int,
    kernel: str | BitpackKernel,
) -> np.ndarray:
    """Decode a run of blocks into the int64 buffer ``out`` (laid out by ``lens``).

    ``sign_owners`` marks the blocks that own a row of the sign section, in
    block order (``None``: every block).  Each group is unpacked narrow,
    negated branch-free in a signed dtype of at least ``width + 1`` bits
    (``v ^= m; v -= m`` with ``m = -sign``; for widths above 31 the int64
    view, where negation is modular: magnitude ``2**63`` maps to INT64_MIN)
    and scattered as whole rows into ``out``; zero-width blocks are zeroed.
    Every element of ``out`` is written exactly once.
    """
    sign_lens = lens if sign_owners is None else lens[sign_owners]
    # Sign bit 1 (negative) becomes the all-ones mask -1, 0 stays 0.
    neg = decode_signs(sign_bytes, int(sign_lens.sum())).view(np.int8)
    np.negative(neg, out=neg)
    sign_rows = _BlockRows(neg, sign_lens)
    rank = None if sign_owners is None else np.cumsum(sign_owners) - 1
    out_rows = _BlockRows(out, lens)
    kern = resolve_kernel(kernel, size=out.size)
    for bsel, blen, w, vals in _decode_groups(
        payload_bytes, widths, lens, align_bits, kern
    ):
        if vals is None:
            out_rows.put(bsel, blen, 0)
            continue
        sdt = _SIGNED[w]
        v = vals.view(sdt) if vals.dtype.itemsize == sdt.itemsize else vals.astype(sdt)
        m = sign_rows.take(bsel if rank is None else rank[bsel], blen)
        v ^= m
        v -= m
        out_rows.put(bsel, blen, v)
    return out


# --------------------------------------------------------------------------
# bit-granular fallback (arbitrary geometries)
# --------------------------------------------------------------------------


def _element_geometry(widths: np.ndarray, lens: np.ndarray, block_bits: np.ndarray):
    """Per-element width and starting bit offset for the selected blocks."""
    block_off = exclusive_cumsum(block_bits)
    elem_block = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    elem_pos = ragged_arange(lens)
    elem_w = widths[elem_block]
    elem_off = block_off[elem_block] + elem_pos * elem_w
    return elem_w, elem_off


def _encode_magnitudes_bits(
    mags: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    block_bits: np.ndarray,
    kern: BitpackKernel,
) -> tuple[np.ndarray, int]:
    elem_w, elem_off = _element_geometry(widths, lens, block_bits)
    total_bits = int(block_bits.sum())
    bits = np.zeros(total_bits, dtype=np.uint8)
    for w in np.unique(widths):
        w = int(w)
        if w == 0:
            continue
        sel = elem_w == w
        vals = np.asarray(mags)[sel]
        if vals.size == 0:
            continue
        group_bits = kern.bits_of(vals, w).reshape(vals.size, w)
        idx = (elem_off[sel][:, None] + np.arange(w, dtype=np.int64)[None, :]).ravel()
        bits[idx] = group_bits.ravel()
    return pack_bits(bits), total_bits


# --------------------------------------------------------------------------
# combined sign + payload sections
# --------------------------------------------------------------------------


def encode_block_sections(
    mags: np.ndarray,
    signs: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    kernel: str | BitpackKernel = AUTO_KERNEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the sign + payload sections for a contiguous run of blocks.

    ``mags``/``signs`` cover *all* elements of the run; constant blocks
    (width 0) are filtered out here because their bits are implicit in the
    stream format.
    """
    stored = widths > 0
    lens64 = np.asarray(lens, dtype=np.int64)
    if stored.all():
        stored_signs: np.ndarray = np.asarray(signs, dtype=np.uint8)
    else:
        uniform = (
            lens64.size > 0
            and int(lens64[0]) > 0
            and int(lens64.min()) == int(lens64.max())
        )
        if uniform:
            # All blocks share one length: drop constant blocks with a row
            # take instead of a per-element boolean mask.
            stored_signs = (
                np.ascontiguousarray(signs, dtype=np.uint8)
                .reshape(lens64.size, -1)[stored]
                .reshape(-1)
            )
        else:
            stored_signs = np.asarray(signs, dtype=np.uint8)[np.repeat(stored, lens64)]
    sign_bytes = encode_signs(stored_signs)
    # The magnitudes need no such filtering: zero-width blocks contribute
    # zero payload bits, so packing the full selection yields the identical
    # stream without materializing a compacted copy of ``mags``.
    payload_bytes, _ = encode_magnitudes(mags, widths, lens64, kernel=kernel)
    return sign_bytes, payload_bytes


def decode_block_sections(
    sign_bytes: np.ndarray,
    payload_bytes: np.ndarray,
    widths: np.ndarray,
    lens: np.ndarray,
    kernel: str | BitpackKernel = AUTO_KERNEL,
    *,
    align_bits: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode a run of blocks back to signed int64 deltas (constant blocks -> 0).

    The sign section holds rows for the stored (nonzero-width) blocks only.
    ``out``, when given, is a C-contiguous int64 buffer of the run's
    element count that receives the deltas (every element is written).
    """
    widths64 = np.asarray(widths, dtype=np.int64)
    lens64 = np.asarray(lens, dtype=np.int64)
    n_elems = int(lens64.sum())
    if out is None:
        out = np.empty(n_elems, dtype=np.int64)
    elif (
        out.shape != (n_elems,)
        or out.dtype != np.int64
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous int64 array of shape ({n_elems},)"
        )
    return _decode_signed(
        out, sign_bytes, payload_bytes, widths64, lens64, widths64 > 0,
        align_bits, kernel,
    )


def decode_stored_deltas(
    sign_bytes: np.ndarray,
    payload_bytes: np.ndarray,
    stored_widths: np.ndarray,
    stored_lens: np.ndarray,
    kernel: str | BitpackKernel = AUTO_KERNEL,
    *,
    align_bits: int = 1,
) -> np.ndarray:
    """Decode only the stored (non-constant) blocks, leaving them compacted.

    Unlike :func:`decode_block_sections` this never materializes the
    constant blocks, which is what lets scalar multiplication and the
    reductions honour the paper's "excluding constant block computations"
    optimization (Table V).  Every given block owns a row of the sign
    section; a zero-width one decodes to zeros.
    """
    widths64 = np.asarray(stored_widths, dtype=np.int64)
    lens64 = np.asarray(stored_lens, dtype=np.int64)
    out = np.empty(int(lens64.sum()), dtype=np.int64)
    return _decode_signed(
        out, sign_bytes, payload_bytes, widths64, lens64, None, align_bits, kernel
    )
