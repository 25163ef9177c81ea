"""Block partitioning of the flattened array.

SZOps compresses the C-order flattened array in fixed-size 1-D blocks
(the paper's ``m' x n'`` 2-D blocking is the same thing after flattening,
because the Lorenzo operator inside a block is 1-D).  The last block may be
shorter ("ragged tail"); every kernel in :mod:`repro.core.encode` accepts
per-block lengths so no padding is ever introduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlockLayout", "segment_max", "segment_sum"]


@dataclass(frozen=True)
class BlockLayout:
    """Derived geometry of a blocked 1-D array."""

    n_elements: int
    block_size: int

    @property
    def n_blocks(self) -> int:
        return (self.n_elements + self.block_size - 1) // self.block_size

    @property
    def n_full_blocks(self) -> int:
        return self.n_elements // self.block_size

    @property
    def tail_length(self) -> int:
        """Length of the ragged final block (0 if the array tiles exactly)."""
        return self.n_elements - self.n_full_blocks * self.block_size

    def lengths(self) -> np.ndarray:
        """Per-block element counts, shape ``(n_blocks,)``."""
        lens = np.full(self.n_blocks, self.block_size, dtype=np.int64)
        if self.tail_length:
            lens[-1] = self.tail_length
        return lens

    def section_bits(self, widths: np.ndarray, align_bits: int = 1) -> tuple[int, int]:
        """Exact sign and payload bit counts for a width plane.

        A block of width ``w > 0`` and length ``l`` stores ``l`` sign bits
        and ``w * l`` payload bits, rounded up to ``align_bits``; a
        constant block (``w == 0``) stores neither.  Both sums come from
        whole-plane counts (under alignment, a bin count of the full
        blocks' widths) folded into Python ints, so they are exact for any
        plane of shape ``(n_blocks,)`` and any block size.
        """
        bs, tail = self.block_size, self.tail_length
        full = widths[: self.n_full_blocks]
        w_tail = int(widths[-1]) if tail else 0
        sign = int(np.count_nonzero(full)) * bs + (tail if w_tail else 0)
        if align_bits == 1:
            payload = int(full.sum(dtype=np.int64)) * bs + w_tail * tail
        else:
            payload = sum(
                n * -(-w * bs // align_bits) * align_bits
                for w, n in enumerate(np.bincount(full).tolist())
                if n
            )
            payload += -(-w_tail * tail // align_bits) * align_bits
        return sign, payload

    def starts(self) -> np.ndarray:
        """Element index of each block's first element."""
        return np.arange(self.n_blocks, dtype=np.int64) * self.block_size

    def block_ids(self) -> np.ndarray:
        """Block index of every element, shape ``(n_elements,)``."""
        return np.arange(self.n_elements, dtype=np.int64) // self.block_size


def _split_tail(values: np.ndarray, layout: BlockLayout):
    """View the leading full blocks as a 2-D matrix plus the ragged tail."""
    nf = layout.n_full_blocks
    body = values[: nf * layout.block_size].reshape(nf, layout.block_size)
    tail = values[nf * layout.block_size :]
    return body, tail


def segment_max(values: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Per-block maximum, vectorized via the full-block reshape trick."""
    if values.shape != (layout.n_elements,):
        raise ValueError("values must be 1-D and match the layout")
    out = np.empty(layout.n_blocks, dtype=values.dtype)
    body, tail = _split_tail(values, layout)
    if body.size:
        np.max(body, axis=1, out=out[: layout.n_full_blocks])
    if tail.size:
        out[-1] = tail.max()
    return out


def segment_sum(values: np.ndarray, layout: BlockLayout, dtype=np.float64) -> np.ndarray:
    """Per-block sum (accumulated in ``dtype``, float64 by default)."""
    if values.shape != (layout.n_elements,):
        raise ValueError("values must be 1-D and match the layout")
    out = np.empty(layout.n_blocks, dtype=dtype)
    body, tail = _split_tail(values, layout)
    if body.size:
        np.sum(body, axis=1, dtype=dtype, out=out[: layout.n_full_blocks])
    elif layout.n_full_blocks:
        out[: layout.n_full_blocks] = 0
    if tail.size:
        out[-1] = tail.sum(dtype=dtype)
    return out
