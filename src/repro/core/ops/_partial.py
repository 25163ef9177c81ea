"""Partial-decompression helpers shared by the compressed-domain operations.

Scalar multiplication and the reductions operate in the *quantized integer
domain*: they decode the fixed-length payload and invert the Lorenzo
operator, but never apply inverse quantization (Table II's note — this is
what preserves error-boundedness).  Constant blocks are never decoded at
all; their quantized values are known from the outlier plane alone, which
is the "excluding constant block computations" optimization of Table V.

The two pointwise steps a re-encode applies — ``IntAffine`` (negation,
quantized scalar add/subtract) and ``Requantize`` (scalar multiplication)
— live here too: eager multiplication and lazy chains run the same step
kernels, tile by tile inside the encode front (:func:`rebuild_stored`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.blocks import BlockLayout
from repro.core.encode import (
    FRONT_TILE,
    decode_stored_deltas,
    encode_bins,
    encode_block_sections,
)
from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.lorenzo import lorenzo_inverse
from repro.core.moments import QuantizedMoments
from repro.core.quantize import Q_LIMIT

__all__ = [
    "Q_LIMIT",
    "StoredBlocks",
    "stored_quantized",
    "stored_moments",
    "decode_stored_blocks",
    "ensure_quantized_range",
    "range_overflow",
    "IntAffine",
    "Requantize",
    "Step",
    "apply_steps",
    "transformed_moments",
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

        :func:`stored_moments` memoises them on the container as well; the
        view keeps its own copy for equal-content containers, which share
        one cached view but not a memo.
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
    disabled this is exactly :func:`decode_stored_blocks`.  Under
    :func:`~repro.runtime.cache.memo_only` it always raises
    :class:`~repro.runtime.cache.MemoMiss`.
    """
    from repro.runtime.cache import active_cache, ensure_may_decode

    cache = active_cache()
    if cache is None:
        ensure_may_decode()
        return decode_stored_blocks(c)
    return cache.get_blocks(c)


def stored_moments(c: SZOpsCompressed) -> QuantizedMoments:
    """Exact moments of ``c``: what every whole-stream reduction reads.

    With an active cache they are memoised on ``c`` itself
    (:meth:`~repro.runtime.cache.DecodedBlockCache.get_moments`), so they
    outlive ``c``'s decoded bins; with the cache disabled every call
    decodes.  Under :func:`~repro.runtime.cache.memo_only` only a valid
    memo is served; anything else raises
    :class:`~repro.runtime.cache.MemoMiss`.
    """
    from repro.runtime.cache import active_cache, ensure_may_decode

    cache = active_cache()
    if cache is None:
        ensure_may_decode()
        return decode_stored_blocks(c).moments
    return cache.get_moments(c)


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


#: The error context of a fused (folded) negate/add/sub step.
_FUSED_SHIFT = "fused scalar shift"


@dataclass(frozen=True)
class IntAffine:
    """Exact integer step ``q -> sigma * q + shift`` (sigma in {+1, -1})."""

    sigma: int
    shift: int

    def apply(
        self,
        q: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
        bounds: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """``sigma*q + shift`` into ``out`` (a new array when ``None``).

        The shift_outliers guard: a fused chain can accumulate a shift the
        eager path would have rejected step by step.  ``|sigma*q|`` is
        ``|q|``, so the guard reads ``q``'s ``(min, max)``, or ``bounds``
        when the caller already knows them; an empty plane is returned as
        is, unguarded.
        """
        if not q.size:
            return q
        shift = int(self.shift)
        lo, hi = bounds if bounds is not None else (int(q.min()), int(q.max()))
        # max(hi, -lo) >= 0, so the first arm restates part of the second;
        # it is what lets the range analysis (SZL101) bound ``q + shift``
        # when the bounds come from the caller rather than from ``q``.
        if abs(shift) >= int(Q_LIMIT) or max(hi, -lo) + abs(shift) >= int(Q_LIMIT):
            raise range_overflow(_FUSED_SHIFT)
        if self.sigma < 0:
            return np.subtract(shift, q, out=out)
        return np.add(q, shift, out=out)

    def apply_moments(self, m: QuantizedMoments) -> QuantizedMoments:
        """Exact moments of ``sigma*q + shift`` from those of ``q``.

        Raises exactly when :meth:`apply` would on the planes ``m`` sums.
        """
        shift = int(self.shift)
        s1, lo, hi = (-m.s1, -m.hi, -m.lo) if self.sigma < 0 else (m.s1, m.lo, m.hi)
        if shift and m.n and max(hi, -lo) + abs(shift) >= int(Q_LIMIT):
            raise range_overflow(_FUSED_SHIFT)
        n = m.n
        s2 = m.s2 + 2 * shift * s1 + n * shift * shift
        return QuantizedMoments(s1 + n * shift, s2, lo + shift, hi + shift, n)

    @property
    def is_identity(self) -> bool:
        return self.sigma == 1 and self.shift == 0


@dataclass(frozen=True)
class Requantize:
    """Rounding step ``q -> round(q * s_rep)`` (scalar multiplication)."""

    s_rep: float

    def apply(
        self, q: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """``round(q * s_rep)`` with an overflow guard on the int64 result.

        The float64 product goes to ``scratch`` and the bins to ``out``
        (new arrays when ``None``).  The guard must *raise*, never wrap: a
        silent int64 wraparound would produce a decodable stream
        representing garbage.  Three failure shapes are caught — a finite
        product at or beyond ``Q_LIMIT`` (2^62), a product that overflowed
        float64 to infinity, and a NaN from ``0 * inf`` — all reported as
        the documented :class:`OperationError`.
        """
        return self.apply_bounded(q, out, scratch)[0]

    def apply_bounded(
        self, q: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple[int, int] | None]:
        """:meth:`apply`, plus the result's ``(min, max)`` its guard read.

        The bounds are ``None`` for an empty plane.
        """
        # The guard below reports overflow and NaN products.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.multiply(q, self.s_rep, out=scratch, dtype=np.float64)
        np.rint(scaled, out=scaled)
        bounds: tuple[int, int] | None = None
        if scaled.size:
            limit = float(Q_LIMIT)
            hi, lo = scaled.max(), scaled.min()
            # max/min propagate NaN and NaN fails both comparisons, so this
            # one guard rejects NaN, +-inf and every finite |x| >= Q_LIMIT.
            if not (hi < limit and lo > -limit):
                raise range_overflow("scalar multiplication")
            # Integral and below 2^62, so exactly the int64 bins' extremes.
            bounds = (int(lo), int(hi))
        if out is None:
            return scaled.astype(np.int64), bounds
        np.copyto(out, scaled, casting="unsafe")
        return out, bounds


Step = IntAffine | Requantize


def apply_steps(
    steps: tuple[Step, ...], q: np.ndarray, const: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-plane step order: each step over both planes before the next."""
    for step in steps:
        q = step.apply(q)
        const = step.apply(const)
    return q, const


class _TileSteps:
    """``steps`` over one tile at a time, in reused int64/float64 buffers.

    The first call sizes the buffers (the encode front's first tile is
    its largest); each step reads the previous one's result and writes
    the int64 buffer, a multiply through the float64 one.  A shift after
    a multiply guards with the tile bounds the multiply's guard read.
    """

    def __init__(self, steps: tuple[Step, ...]) -> None:
        self.steps = steps
        self.ints = np.empty(0, dtype=np.int64)
        self.floats = np.empty(0, dtype=np.float64)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        n = q.size
        if self.ints.size < n:
            self.ints = np.empty(n, dtype=np.int64)
            self.floats = np.empty(n, dtype=np.float64)
        out, scratch = self.ints[:n], self.floats[:n]
        bounds: tuple[int, int] | None = None
        for step in self.steps:
            if isinstance(step, Requantize):
                q, bounds = step.apply_bounded(q, out, scratch)
            else:
                q, bounds = step.apply(q, out, scratch, bounds), None
        return q


def transformed_moments(
    blocks: StoredBlocks, steps: tuple[Step, ...]
) -> QuantizedMoments:
    """Exact moments of ``blocks`` after ``steps``, one tile at a time.

    Equal to ``QuantizedMoments.of`` of the whole transformed view (the
    sums are exact integers, so tiling cannot change them), but both
    planes go through ``steps`` in reused tile-sized buffers, so the
    memory this takes does not grow with the stream.  A failing guard
    raises the error of the whole-plane order (:func:`apply_steps`), as
    :func:`rebuild_stored` does.
    """
    tile_steps = _TileSteps(steps)

    def tiled(x: np.ndarray, counts: np.ndarray | None = None) -> QuantizedMoments:
        return QuantizedMoments.combine(
            QuantizedMoments.of_values(
                tile_steps(x[lo : lo + FRONT_TILE]),
                None if counts is None else counts[lo : lo + FRONT_TILE],
            )
            for lo in range(0, x.size, FRONT_TILE)
        )

    try:
        return tiled(blocks.q) + tiled(blocks.const_outliers, blocks.const_lens)
    except OperationError as exc:
        raise _whole_plane_error(steps, blocks, exc) from None


def _whole_plane_error(
    steps: tuple[Step, ...], blocks: StoredBlocks, exc: OperationError
) -> OperationError:
    """The error :func:`apply_steps` raises first, for a tiled run's ``exc``.

    A tile can trip a later step before another tile trips an earlier
    one; rerunning the whole-plane order finds the error it reports.
    """
    try:
        apply_steps(steps, blocks.q, blocks.const_outliers)
    except OperationError as first:
        return first
    return exc


def rebuild_stored(
    c: SZOpsCompressed, blocks: StoredBlocks, steps: tuple[Step, ...] = ()
) -> SZOpsCompressed:
    """Re-encode ``blocks`` (a quantized view of ``c``'s geometry) after ``steps``.

    The stored blocks' bins run through ``steps`` one block-aligned tile at
    a time inside the encode front, so each tile is transformed, Lorenzo
    coded and split into signs and magnitudes while it is in cache; the
    constant blocks' outliers go through ``steps`` as one small plane and
    never touch a payload.  A stored block whose transformed deltas are
    all zero re-encodes at width 0, i.e. it *becomes* constant (exactly as
    eager scalar multiplication behaves).  A failing guard raises the
    error of the whole-plane order (:func:`apply_steps`): a tile can trip
    a later step before another tile trips an earlier one.

    Shared by :func:`repro.core.ops.scalar_mul.scalar_multiply`, the lazy
    fusion runtime (:mod:`repro.runtime.lazy`) and the multivariate
    combine — one encode path is what makes fused and eager chains
    produce identical streams.
    """
    layout = c.layout
    stored = blocks.stored_mask
    new_outliers = np.empty(layout.n_blocks, dtype=np.int64)
    new_widths = np.zeros(layout.n_blocks, dtype=np.uint8)
    sign_bytes = payload_bytes = np.zeros(0, dtype=np.uint8)
    try:
        const = blocks.const_outliers
        for step in steps:
            const = step.apply(const)
        if blocks.q.size:
            # Only the globally last block may be ragged, so the stored
            # blocks form a block layout of their own.
            front = encode_bins(
                blocks.q, c.block_size, _TileSteps(steps) if steps else None
            )
    except OperationError as exc:
        raise _whole_plane_error(steps, blocks, exc) from None
    new_outliers[~stored] = const
    if blocks.q.size:
        new_outliers[stored] = front.outliers
        new_widths[stored] = front.widths
        sign_bytes, payload_bytes = encode_block_sections(
            front.mags, front.signs, front.widths, blocks.lens
        )
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
