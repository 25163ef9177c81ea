"""SZp: the multi-threaded CPU port of cuSZp the paper compares against.

SZp shares SZOps's pipeline math exactly — quantization, blockwise 1-D
Lorenzo, blockwise fixed-length encoding — but keeps the *stream format* of
the OpenMP SZp library ([42] in the paper), whose overheads Section VI-B3
identifies as the reason SZOps compresses better:

* a **per-block compressed-byte-length field** (u16) so blocks can be
  located without decoding their neighbours (needed by SZp's independent
  per-thread writers, redundant in SZOps where boundaries derive from the
  width plane);
* a full **sign bitmap for every block**, constant blocks included;
* per-block payload **padded to 32-bit words** (word-granular writers);
* a fixed-width **int32 outlier** per block (no narrowing).

SZp supports only the traditional workflow: any operation requires full
decompression, the NumPy op, and full recompression — that path is driven
by :mod:`repro.workflow.traditional`.

The format toggles are exposed as constructor flags so the ablation
benchmark (``benchmarks/test_ablation_format_overhead.py``) can switch each
overhead off individually and show how the SZOps format recovers the ratio.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseCompressor
from repro.bitstream import ByteReader, ByteWriter
from repro.core.blocks import BlockLayout
from repro.core.compressor import encode_values
from repro.core.encode import (
    decode_block_sections,
    decode_stored_deltas,
    encode_magnitudes,
    encode_signs,
)
from repro.core.errors import FormatError
from repro.core.lorenzo import lorenzo_inverse
from repro.core.quantize import dequantize

__all__ = ["SZp"]


class SZp(BaseCompressor):
    """SZp-format error-bounded compressor (traditional workflow only).

    Parameters
    ----------
    block_size : elements per block, default 64 (the paper's geometry).
    store_block_lengths : keep the per-block u16 byte-length plane.
    full_sign_bitmap : store sign bits for constant blocks too.
    word_align_payload : pad each block's payload to 32-bit words.

    The three flags default to True (faithful SZp format); turning them all
    off makes the stream SZOps-shaped, which is exactly the ablation of
    Section VI-B3.
    """

    name = "SZp"

    def __init__(
        self,
        block_size: int = 64,
        store_block_lengths: bool = True,
        full_sign_bitmap: bool = True,
        word_align_payload: bool = True,
    ) -> None:
        if block_size <= 0 or block_size % 8:
            raise ValueError("block_size must be a positive multiple of 8")
        self.block_size = block_size
        self.store_block_lengths = store_block_lengths
        self.full_sign_bitmap = full_sign_bitmap
        self.word_align_payload = word_align_payload

    @property
    def _align_bits(self) -> int:
        return 32 if self.word_align_payload else 1

    # ------------------------------------------------------------------ compress

    def _compress_payload(
        self, flat: np.ndarray, eps: float, shape: tuple[int, ...]
    ) -> bytes:
        lens = BlockLayout(flat.size, self.block_size).lengths()
        signs, mags, widths, outliers = encode_values(flat, eps, self.block_size)

        if self.full_sign_bitmap:
            sign_bytes = encode_signs(signs)
        else:
            stored_elems = np.repeat(widths > 0, lens)
            sign_bytes = encode_signs(signs[stored_elems])

        if self.full_sign_bitmap:
            payload_widths, payload_lens, payload_mags = widths, lens, mags
        else:
            stored = widths > 0
            payload_widths = widths[stored]
            payload_lens = lens[stored]
            payload_mags = mags[np.repeat(stored, lens)]
        payload_bytes, _ = encode_magnitudes(
            payload_mags, payload_widths, payload_lens, align_bits=self._align_bits
        )

        w = ByteWriter()
        w.write_u32(self.block_size)
        w.write_u8(
            (self.store_block_lengths << 0)
            | (self.full_sign_bitmap << 1)
            | (self.word_align_payload << 2)
        )
        w.write_f64(eps)
        w.write_bytes(widths)
        if self.store_block_lengths:
            block_bits = widths.astype(np.int64) * lens
            if self.word_align_payload:
                block_bits = -(-block_bits // 32) * 32
            byte_lens = (-(-block_bits // 8)).astype(np.uint16)
            w.write_bytes(byte_lens.view(np.uint8))
        info = np.iinfo(np.int32)
        if outliers.size and (outliers.min() < info.min or outliers.max() > info.max):
            raise FormatError(
                "quantized first values exceed SZp's fixed int32 outlier "
                "field; use a larger error bound"
            )
        w.write_bytes(outliers.astype(np.int32).view(np.uint8))
        w.write_u64(sign_bytes.size)
        w.write_bytes(sign_bytes)
        w.write_u64(payload_bytes.size)
        w.write_bytes(payload_bytes)
        return w.getvalue()

    # ------------------------------------------------------------------ decompress

    def _decompress_payload(
        self, payload: bytes, n_elements: int, eps: float, shape: tuple[int, ...]
    ) -> np.ndarray:
        r = ByteReader(payload)
        block_size = r.read_u32()
        flags = r.read_u8()
        store_lengths = bool(flags & 1)
        full_signs = bool(flags & 2)
        word_align = bool(flags & 4)
        stream_eps = r.read_f64()
        layout = BlockLayout(n_elements, block_size)
        lens = layout.lengths()
        widths = np.frombuffer(r.read_bytes(layout.n_blocks), dtype=np.uint8).copy()
        if store_lengths:
            r.read_bytes(layout.n_blocks * 2)  # length plane: redundant on read
        outliers = np.frombuffer(
            r.read_bytes(layout.n_blocks * 4), dtype=np.int32
        ).astype(np.int64)
        n_sign = r.read_u64()
        sign_bytes = np.frombuffer(r.read_bytes(n_sign), dtype=np.uint8)
        n_payload = r.read_u64()
        payload_bytes = np.frombuffer(r.read_bytes(n_payload), dtype=np.uint8)
        r.expect_end()

        align_bits = 32 if word_align else 1
        if full_signs:
            # Every block owns a sign row: decode them all, constant or not.
            deltas = decode_stored_deltas(
                sign_bytes, payload_bytes, widths, lens, align_bits=align_bits
            )
        else:
            deltas = decode_block_sections(
                sign_bytes, payload_bytes, widths, lens, align_bits=align_bits
            )
        q = lorenzo_inverse(deltas, outliers, layout, out=deltas)
        if abs(stream_eps - eps) > 1e-300 and not np.isclose(stream_eps, eps):
            raise FormatError("stream error bound disagrees with blob metadata")
        return dequantize(q, stream_eps, np.float64)
