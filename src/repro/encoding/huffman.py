"""Canonical Huffman coding over a bounded integer alphabet.

SZ-family compressors (SZ1/SZ2/SZ3) entropy-code their quantization codes
with Huffman coding followed by a general-purpose lossless pass; this module
provides that Huffman stage for the SZ2-/SZ3-class baselines.

Design notes
------------
* Codes are *canonical*: only the per-symbol code lengths are serialized;
  both sides rebuild identical codebooks from the lengths.
* Code lengths are limited to :data:`MAX_CODE_LENGTH` bits (frequency
  halving, the classic zlib trick) so decoding can use a flat
  ``2**MAX_CODE_LENGTH`` lookup table.
* Encoding is vectorized by grouping symbols by code length (at most 16
  groups) and scattering their bits at prefix-sum offsets — the same
  strategy as the SZOps fixed-length encoder.
* Decoding is necessarily sequential (variable-length codes); the inner
  loop peeks 32-bit windows out of a padded byte string and walks a flat
  Python-list LUT, which is the fastest portable pure-Python approach.
  The paper's reproduction bands flag this as the expected slow spot; it
  only affects the baseline codecs, never SZOps itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.bitstream import (
    AUTO_KERNEL,
    BitpackKernel,
    exclusive_cumsum,
    pack_bits,
    resolve_kernel,
)

__all__ = ["MAX_CODE_LENGTH", "HuffmanCodebook", "huffman_encode", "huffman_decode"]

MAX_CODE_LENGTH = 16


def _huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Code length per symbol from frequencies (0 for unused symbols)."""
    freqs = np.asarray(freqs, dtype=np.int64)
    used = np.flatnonzero(freqs > 0)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths
    # Standard heap construction tracking each merge's depth contribution.
    heap: list[tuple[int, int, list[int]]] = [
        (int(freqs[s]), int(s), [int(s)]) for s in used
    ]
    heapq.heapify(heap)
    depth = np.zeros(freqs.size, dtype=np.int64)
    tiebreak = int(freqs.size)
    while len(heap) > 1:
        fa, _, syms_a = heapq.heappop(heap)
        fb, _, syms_b = heapq.heappop(heap)
        merged = syms_a + syms_b
        depth[merged] += 1
        heapq.heappush(heap, (fa + fb, tiebreak, merged))
        tiebreak += 1
    lengths[used] = depth[used]
    return lengths


def _limited_lengths(freqs: np.ndarray) -> np.ndarray:
    """Huffman lengths capped at MAX_CODE_LENGTH via frequency halving."""
    f = np.asarray(freqs, dtype=np.int64).copy()
    while True:
        lengths = _huffman_lengths(f)
        if lengths.size == 0 or int(lengths.max(initial=0)) <= MAX_CODE_LENGTH:
            return lengths
        f = (f + 1) // 2
        # keep used symbols used: halving never zeroes a positive count
        # because of the +1, so the alphabet is stable across iterations.


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes (as uint32) from code lengths."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    codes = np.zeros(lengths.size, dtype=np.uint32)
    used = np.flatnonzero(lengths > 0)
    if used.size == 0:
        return codes
    # Sort by (length, symbol); assign increasing code values, shifting one
    # bit left whenever the length grows.
    order = used[np.lexsort((used, lengths[used]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        cur_len = int(lengths[sym])
        code <<= cur_len - prev_len
        codes[sym] = code
        code += 1
        prev_len = cur_len
    return codes


@dataclass
class HuffmanCodebook:
    """Canonical codebook: lengths define everything."""

    lengths: np.ndarray  # uint8 per symbol (0 = unused)
    codes: np.ndarray  # uint32 per symbol

    @classmethod
    def from_frequencies(cls, freqs: np.ndarray) -> "HuffmanCodebook":
        lengths = _limited_lengths(freqs)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "HuffmanCodebook":
        lengths = np.asarray(lengths, dtype=np.uint8)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    def serialized_lengths(self) -> bytes:
        """Length table as raw bytes (callers typically DEFLATE this)."""
        return self.lengths.tobytes()

    def build_decode_table(self) -> tuple[list[int], list[int]]:
        """Flat LUT: 16-bit window -> (symbol, code length)."""
        lut_sym = [0] * (1 << MAX_CODE_LENGTH)
        lut_len = [0] * (1 << MAX_CODE_LENGTH)
        for sym in np.flatnonzero(self.lengths > 0):
            clen = int(self.lengths[sym])
            code = int(self.codes[sym])
            base = code << (MAX_CODE_LENGTH - clen)
            span = 1 << (MAX_CODE_LENGTH - clen)
            lut_sym[base : base + span] = [int(sym)] * span
            lut_len[base : base + span] = [clen] * span
        return lut_sym, lut_len


def huffman_encode(
    symbols: np.ndarray,
    book: HuffmanCodebook,
    kernel: str | BitpackKernel = AUTO_KERNEL,
) -> tuple[bytes, int]:
    """Encode a symbol stream; returns (payload bytes, total bits).

    Vectorized: one scatter per distinct code length, with the per-length
    bit expansion routed through the configured bitpack kernel.
    """
    syms = np.asarray(symbols, dtype=np.int64)
    if syms.size == 0:
        return b"", 0
    lens = book.lengths[syms].astype(np.int64)
    if int(lens.min(initial=1)) == 0:
        bad = int(syms[lens == 0][0])
        raise ValueError(f"symbol {bad} has no code (zero frequency at build time)")
    kern = resolve_kernel(kernel, size=syms.size)
    offsets = exclusive_cumsum(lens)
    total = int(lens.sum())
    bits = np.zeros(total, dtype=np.uint8)
    code_vals = book.codes[syms].astype(np.uint64)
    for clen in np.unique(lens):
        clen = int(clen)
        sel = lens == clen
        group = kern.bits_of(code_vals[sel], clen).reshape(-1, clen)
        idx = (offsets[sel][:, None] + np.arange(clen, dtype=np.int64)[None, :]).ravel()
        bits[idx] = group.ravel()
    return pack_bits(bits).tobytes(), total


def huffman_decode(
    payload: bytes, n_symbols: int, book: HuffmanCodebook
) -> np.ndarray:
    """Decode ``n_symbols`` symbols from a Huffman payload.

    Sequential by nature; the hot loop peeks 32-bit big-endian windows from
    a zero-padded byte string and consults a flat LUT.
    """
    if n_symbols == 0:
        return np.zeros(0, dtype=np.int64)
    lut_sym, lut_len = book.build_decode_table()
    buf = payload + b"\x00\x00\x00\x00"
    out = [0] * n_symbols
    pos = 0
    from_bytes = int.from_bytes  # local alias for loop speed
    for i in range(n_symbols):
        bp = pos >> 3
        sh = pos & 7
        window = from_bytes(buf[bp : bp + 4], "big")
        idx = (window >> (16 - sh)) & 0xFFFF
        clen = lut_len[idx]
        if clen == 0:
            raise ValueError(f"corrupt Huffman stream at bit {pos}")
        out[i] = lut_sym[idx]
        pos += clen
    if pos > len(payload) * 8:
        raise ValueError("Huffman stream truncated")
    return np.asarray(out, dtype=np.int64)
