"""Partial-decompression helpers shared by the compressed-domain operations.

Scalar multiplication and the reductions operate in the *quantized integer
domain*: they decode the fixed-length payload and invert the Lorenzo
operator, but never apply inverse quantization (Table II's note — this is
what preserves error-boundedness).  Constant blocks are never decoded at
all; their quantized values are known from the outlier plane alone, which
is the "excluding constant block computations" optimization of Table V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.blocks import BlockLayout
from repro.core.encode import decode_stored_deltas, encode_bins, encode_block_sections
from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.lorenzo import lorenzo_inverse
from repro.core.moments import QuantizedMoments
from repro.core.quantize import Q_LIMIT

__all__ = [
    "Q_LIMIT",
    "StoredBlocks",
    "stored_quantized",
    "decode_stored_blocks",
    "ensure_quantized_range",
    "range_overflow",
    "requantize",
    "rebuild_stored",
]


@dataclass
class StoredBlocks:
    """Quantized view of a container, split by constant-ness.

    Attributes
    ----------
    q : concatenated quantized integers of the *stored* (non-constant)
        blocks, in block order.
    lens : element counts of the stored blocks.
    stored_mask : boolean over all blocks (True = stored).
    const_outliers : quantized value of each constant block.
    const_lens : element counts of the constant blocks.
    """

    q: np.ndarray
    lens: np.ndarray
    stored_mask: np.ndarray
    const_outliers: np.ndarray
    const_lens: np.ndarray

    @cached_property
    def moments(self) -> QuantizedMoments:
        """Exact moments of this view, computed once per decoded view.

        The decoded-block cache hands the same view to every operation on
        a stream, so the first reduction pays for the sums and every later
        one (min, max, mean, variance, PREDUCE) reads them back.
        """
        return QuantizedMoments.of(self)

    def expand(self, lens: np.ndarray) -> np.ndarray:
        """Quantized integers of every block in element order.

        ``lens`` holds the lengths of all blocks, stored and constant.
        """
        q = np.empty(int(lens.sum()), dtype=np.int64)
        stored_elems = np.repeat(self.stored_mask, lens)
        q[stored_elems] = self.q
        q[~stored_elems] = np.repeat(self.const_outliers, self.const_lens)
        return q


def stored_quantized(c: SZOpsCompressed) -> StoredBlocks:
    """Decoded quantized view of ``c``, through the decoded-block cache.

    This is the entry point every compressed-domain operation uses.  When
    :mod:`repro.runtime.cache` has an active cache (the default), the
    BF⁻¹ + Lorenzo⁻¹ decode of a given stream runs once and later operations
    on the same stream reuse the cached (read-only) view; with the cache
    disabled this is exactly :func:`decode_stored_blocks`.
    """
    from repro.runtime.cache import active_cache

    cache = active_cache()
    if cache is None:
        return decode_stored_blocks(c)
    return cache.get_blocks(c)


def decode_stored_blocks(c: SZOpsCompressed) -> StoredBlocks:
    """Decode only the non-constant blocks of ``c`` to quantized integers."""
    c.validate_structure()
    layout = c.layout
    lens = layout.lengths()
    stored = c.widths > 0
    stored_lens = lens[stored]
    q = decode_stored_deltas(
        c.sign_bytes, c.payload_bytes, c.widths[stored], stored_lens
    )
    # Only the globally last block may be ragged, so the compacted stored
    # blocks form a block layout of their own: one in-place Lorenzo^-1.
    lorenzo_inverse(
        q, c.outliers[stored], BlockLayout(q.size, c.block_size), out=q
    )
    return StoredBlocks(
        q=q,
        lens=stored_lens,
        stored_mask=stored,
        const_outliers=c.outliers[~stored],
        const_lens=lens[~stored],
    )


def range_overflow(context: str) -> OperationError:
    """The error every quantized-range guard raises, naming the operation."""
    return OperationError(
        f"{context} overflows the quantized integer range; "
        "use a larger error bound or smaller operands"
    )


def ensure_quantized_range(q: np.ndarray, context: str, shift: int = 0) -> np.ndarray:
    """``q + shift``, enforcing the ``|q| + |shift| < Q_LIMIT`` invariant.

    Compressed-domain combines (``q_a ± q_b``) double the worst-case bin
    magnitude, and a scalar shift adds to it; without this gate a chain of
    ops could push bins past the guard band, where int64 wraps silently or
    the *next* op's Lorenzo deltas do, corrupting the stream.  Raises
    :class:`OperationError` naming ``context`` so the failing operation is
    diagnosable.
    """
    shift = int(shift)
    if not q.size:
        return q
    peak = max(int(q.max()), -int(q.min())) + abs(shift)
    if peak >= int(Q_LIMIT):
        raise range_overflow(context)
    return q + shift if shift else q


def requantize(q: np.ndarray, factor: float) -> np.ndarray:
    """``round(q * factor)`` with an overflow guard on the int64 result.

    The guard must *raise*, never wrap: a silent int64 wraparound would
    produce a decodable stream representing garbage.  Three failure shapes
    are caught — a finite product at or beyond ``Q_LIMIT`` (2^62), a product
    that overflowed float64 to infinity, and a NaN from ``0 * inf`` — all
    reported as the documented :class:`OperationError`.
    """
    with np.errstate(over="ignore"):  # the guard below reports the overflow
        scaled = np.rint(np.asarray(q, dtype=np.float64) * factor)
    limit = float(Q_LIMIT)
    # max/min propagate NaN and NaN fails both comparisons, so this one
    # guard rejects NaN, +-inf and every finite |x| >= Q_LIMIT.
    if scaled.size and not (scaled.max() < limit and scaled.min() > -limit):
        raise range_overflow("scalar multiplication")
    return scaled.astype(np.int64)


def rebuild_stored(
    c: SZOpsCompressed,
    blocks: StoredBlocks,
    q_stored: np.ndarray,
    const_outliers: np.ndarray,
) -> SZOpsCompressed:
    """Re-encode transformed quantized values into a new container.

    ``q_stored`` replaces the concatenated quantized values of the stored
    blocks of ``c`` (same ragged geometry as ``blocks.lens``);
    ``const_outliers`` replaces the constant blocks' outliers.  The Lorenzo
    operator is re-applied per stored block and the deltas re-encoded with
    blockwise fixed-length encoding; constant blocks never touch a payload.
    A stored block whose transformed deltas are all zero re-encodes at
    width 0, i.e. it *becomes* constant (exactly as eager scalar
    multiplication behaves).

    Shared by :func:`repro.core.ops.scalar_mul.scalar_multiply` and the lazy
    fusion runtime (:mod:`repro.runtime.lazy`) — one encode path is what
    makes fused and eager chains produce identical streams.
    """
    layout = c.layout
    stored = blocks.stored_mask
    new_outliers = np.empty(layout.n_blocks, dtype=np.int64)
    new_widths = np.zeros(layout.n_blocks, dtype=np.uint8)
    new_outliers[~stored] = const_outliers

    if q_stored.size:
        # Only the globally last block may be ragged, so the stored blocks
        # form a block layout of their own (``blocks.lens`` is its lengths).
        front = encode_bins(q_stored, c.block_size)
        new_outliers[stored] = front.outliers
        new_widths[stored] = front.widths
        sign_bytes, payload_bytes = encode_block_sections(
            front.mags, front.signs, front.widths, blocks.lens
        )
    else:
        sign_bytes = np.zeros(0, dtype=np.uint8)
        payload_bytes = np.zeros(0, dtype=np.uint8)

    return SZOpsCompressed(
        shape=c.shape,
        dtype=c.dtype,
        eps=c.eps,
        block_size=c.block_size,
        widths=new_widths,
        outliers=new_outliers,
        sign_bytes=sign_bytes,
        payload_bytes=payload_bytes,
    )
