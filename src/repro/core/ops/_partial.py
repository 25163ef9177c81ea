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
A chain runs in its exact :func:`normal_form`: every guard is decided up
front on the view's exact bounds, signs fold into the multiplies, and the
shifts after the last multiply land on the outliers, so the bins see one
multiply per ``Requantize`` and nothing else.
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
from repro.parallel.backends import ExecutionBackend
from repro.parallel.partition import even_ranges

__all__ = [
    "Q_LIMIT",
    "StoredBlocks",
    "stored_quantized",
    "stored_moments",
    "stored_bounds",
    "decode_stored_blocks",
    "ensure_quantized_range",
    "range_overflow",
    "IntAffine",
    "Requantize",
    "Step",
    "apply_steps",
    "normal_form",
    "tiled_moments",
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

    @cached_property
    def bounds(self) -> tuple[int, int] | None:
        """Exact ``(min, max)`` of the view's bins; ``None`` when it has none.

        What a chain's guards read (:func:`normal_form`): taken off
        :attr:`moments` when those are already computed, else scanned
        once, so a warm view's chains guard in O(1).
        """
        moments = self.__dict__.get("moments")
        if moments is not None:
            return (moments.lo, moments.hi) if moments.n else None
        return _scan_bounds(self.q, self.const_outliers)

    def expand(self, lens: np.ndarray) -> np.ndarray:
        """Quantized integers of every block in element order.

        ``lens`` holds the lengths of all blocks, stored and constant.
        """
        q = np.empty(int(lens.sum()), dtype=np.int64)
        stored_elems = np.repeat(self.stored_mask, lens)
        q[stored_elems] = self.q
        q[~stored_elems] = np.repeat(self.const_outliers, self.const_lens)
        return q


def _scan_bounds(*planes: np.ndarray) -> tuple[int, int] | None:
    """``(min, max)`` over the non-empty ``planes``; ``None`` if all are empty."""
    ends = [(int(x.min()), int(x.max())) for x in planes if x.size]
    if not ends:
        return None
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


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


def stored_bounds(c: SZOpsCompressed) -> tuple[int, int] | None:
    """Exact ``(min, max)`` of ``c``'s bins; ``None`` when it has none.

    Read off the moments memo when ``c`` has a valid one
    (:func:`stored_moments`), else off the decoded view
    (:attr:`StoredBlocks.bounds`), which decodes through the cache.
    """
    from repro.runtime.cache import MemoMiss, memo_only

    try:
        with memo_only():
            moments = stored_moments(c)
    except MemoMiss:
        return stored_quantized(c).bounds
    return (moments.lo, moments.hi) if moments.n else None


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


def _affine_moments(m: QuantizedMoments, sigma: int, shift: int) -> QuantizedMoments:
    """Exact moments of ``sigma*q + shift`` from those of ``q``, unguarded."""
    s1, lo, hi = (-m.s1, -m.hi, -m.lo) if sigma < 0 else (m.s1, m.lo, m.hi)
    n = m.n
    s2 = m.s2 + 2 * shift * s1 + n * shift * shift
    return QuantizedMoments(s1 + n * shift, s2, lo + shift, hi + shift, n)


@dataclass(frozen=True)
class IntAffine:
    """Exact integer step ``q -> sigma * q + shift`` (sigma in {+1, -1})."""

    sigma: int
    shift: int

    def bounds_after(self, lo: int, hi: int) -> tuple[int, int]:
        """The step's guard on bins in ``[lo, hi]``, and their exact new bounds.

        The eager shift's guard (``shift_outliers``) on the exact bins: a
        fused chain can accumulate a shift the eager path would have
        rejected step by step, so ``|q| + |shift|`` must stay below
        ``Q_LIMIT`` (``|sigma*q|`` is ``|q|``).
        """
        shift = int(self.shift)
        if abs(shift) >= int(Q_LIMIT) or max(hi, -lo) + abs(shift) >= int(Q_LIMIT):
            raise range_overflow(_FUSED_SHIFT)
        if self.sigma < 0:
            return shift - hi, shift - lo
        return lo + shift, hi + shift

    def apply(self, q: np.ndarray) -> np.ndarray:
        """``sigma*q + shift`` of a whole plane, guarded by its ``(min, max)``.

        An empty plane is returned as is, unguarded.
        """
        if not q.size:
            return q
        self.bounds_after(int(q.min()), int(q.max()))
        return self.transform(q)

    def transform(
        self, q: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """``sigma*q + shift`` into ``out`` (a new array when ``None``), unguarded.

        For a step whose guard already passed (:meth:`bounds_after`);
        ``scratch`` is unused.  Every guard a shift passes bounds
        ``|shift|`` below ``Q_LIMIT``, and ``|q|`` is below it too; the
        O(1) check restates the first, which lets the range analysis
        (SZL101) prove ``q + shift``.
        """
        shift = int(self.shift)
        if abs(shift) >= int(Q_LIMIT):
            raise range_overflow(_FUSED_SHIFT)
        if self.sigma < 0:
            return np.subtract(shift, q, out=out)
        return np.add(q, shift, out=out)

    def apply_moments(self, m: QuantizedMoments) -> QuantizedMoments:
        """Exact moments of ``sigma*q + shift`` from those of ``q``.

        Raises exactly when :meth:`apply` would on the planes ``m`` sums.
        """
        shift = int(self.shift)
        if shift and m.n:
            self.bounds_after(m.lo, m.hi)
        return _affine_moments(m, self.sigma, shift)

    @property
    def is_identity(self) -> bool:
        return self.sigma == 1 and self.shift == 0


@dataclass(frozen=True)
class Requantize:
    """Rounding step ``q -> round(q * s_rep)`` (scalar multiplication)."""

    s_rep: float

    def bounds_after(self, lo: int, hi: int) -> tuple[int, int]:
        """The step's guard on bins in ``[lo, hi]``, and their exact new bounds.

        The int64 conversion, the float64 multiply and ``rint`` are all
        monotone, so ``round(lo * s_rep)`` and ``round(hi * s_rep)`` are the
        exact extremes of the products: checking them decides what
        scanning every product would (:meth:`apply`).  NaN (``0 * inf``)
        fails both comparisons and so does an infinite product.
        """
        limit = float(Q_LIMIT)
        s = float(self.s_rep)
        a, b = np.rint(float(lo) * s), np.rint(float(hi) * s)
        if not (-limit < a < limit and -limit < b < limit):
            raise range_overflow("scalar multiplication")
        return (int(a), int(b)) if a <= b else (int(b), int(a))

    def transform(
        self, q: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """``round(q * s_rep)`` into ``out`` through the float64 ``scratch``, unguarded.

        For a multiply whose guard already passed (:meth:`bounds_after`):
        every product is finite and below ``Q_LIMIT``, so the cast is exact.
        """
        np.multiply(q, self.s_rep, out=scratch, dtype=np.float64)
        np.rint(scratch, out=scratch)
        np.copyto(out, scratch, casting="unsafe")
        return out

    def apply(self, q: np.ndarray) -> np.ndarray:
        """``round(q * s_rep)`` of a whole plane, guarded by scanning the products.

        The guard must *raise*, never wrap: a silent int64 wraparound
        would produce a decodable stream representing garbage.  Three
        failure shapes are caught — a finite product at or beyond
        ``Q_LIMIT`` (2^62), a product that overflowed float64 to infinity,
        and a NaN from ``0 * inf`` — all reported as the documented
        :class:`OperationError`.
        """
        # The guard below reports overflow and NaN products.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.multiply(q, self.s_rep, dtype=np.float64)
        np.rint(scaled, out=scaled)
        if scaled.size:
            limit = float(Q_LIMIT)
            # max/min propagate NaN and NaN fails both comparisons, so this
            # one guard rejects NaN, +-inf and every finite |x| >= Q_LIMIT.
            if not (scaled.max() < limit and scaled.min() > -limit):
                raise range_overflow("scalar multiplication")
        return scaled.astype(np.int64)


Step = IntAffine | Requantize


def apply_steps(
    steps: tuple[Step, ...], q: np.ndarray, const: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-plane step order: each step over both planes before the next."""
    for step in steps:
        q = step.apply(q)
        const = step.apply(const)
    return q, const


def normal_form(
    steps: tuple[Step, ...], blocks: StoredBlocks
) -> tuple[tuple[Step, ...], tuple[int, ...]]:
    """``steps`` over ``blocks`` as ``(body, tail)``, every guard decided.

    The guards run first, on the view's exact bounds
    (:attr:`StoredBlocks.bounds`), each original step in order, so a
    failing chain raises what :func:`apply_steps` raises.  Then the steps
    are rewritten so every bin is touched as few times as exactness
    allows:

    * every sign folds into the next multiply: ``rint`` rounds half to
      even and ``float(-q)*s == -(float(q)*s)``, so ``sigma*q + b`` then
      ``* s`` is ``+ sigma*b`` then ``* sigma*s``, and a sign after the
      last multiply folds into it;
    * the shifts after the last multiply form the ``tail``: a uniform
      shift leaves the Lorenzo deltas alone, so it lands on the outliers
      (or on the moments) and never on a bin.

    ``body`` runs per bin, unguarded: unsigned shifts (``IntAffine(1, b)``)
    and multiplies, or a lone negation when there is no multiply to fold
    it into.  Every shift of ``body`` and ``tail`` is one original step's
    shift, up to sign.  A view without bins transforms to nothing.
    """
    bounds = blocks.bounds if steps else None
    if bounds is None:
        return (), ()
    lo, hi = bounds
    body: list[Step] = []
    shifts: list[int] = []  # since the last multiply, before the sign
    sigma = 1  # the computed bins are sigma times the chain's
    for step in steps:
        lo, hi = step.bounds_after(lo, hi)
        if isinstance(step, Requantize):
            body.extend(IntAffine(1, shift) for shift in shifts)
            body.append(Requantize(sigma * step.s_rep))
            shifts, sigma = [], 1
        else:
            sigma *= step.sigma
            if step.shift:
                shifts.append(sigma * int(step.shift))
    if sigma < 0:
        last = body[-1] if body else None
        if isinstance(last, Requantize):
            body[-1] = Requantize(-last.s_rep)
        else:
            body.append(IntAffine(-1, 0))
    return tuple(body), tuple(sigma * shift for shift in shifts)


class _TileMap:
    """A normal form's ``body`` over one plane at a time, in reused buffers.

    Each call maps a plane (a tile of the stored bins, or the constant
    outliers) to a view of an int64 buffer the next call overwrites (or,
    for an empty body, to the plane itself); the buffers grow to the
    largest plane seen.  Multiplies go through a float64 one.
    """

    def __init__(self, steps: tuple[Step, ...]) -> None:
        self.steps = steps
        self.ints = np.empty(0, dtype=np.int64)
        self.floats = np.empty(0, dtype=np.float64)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        if not self.steps:
            return q
        n = q.size
        if self.ints.size < n:
            self.ints = np.empty(n, dtype=np.int64)
            self.floats = np.empty(n, dtype=np.float64)
        out, scratch = self.ints[:n], self.floats[:n]
        for step in self.steps:
            q = step.transform(q, out, scratch)
        return q


def tiled_moments(
    x: np.ndarray, body: tuple[Step, ...], counts: np.ndarray | None = None
) -> QuantizedMoments:
    """Exact moments of ``x`` after a normal form's ``body``, one tile at a time.

    ``x[i]`` counts ``counts[i]`` times (once when ``None``).  The body
    runs in reused tile-sized buffers, so the memory this takes does not
    grow with ``x``.
    """
    tile_map = _TileMap(body)
    return QuantizedMoments.combine(
        QuantizedMoments.of_values(
            tile_map(x[lo : lo + FRONT_TILE]),
            None if counts is None else counts[lo : lo + FRONT_TILE],
        )
        for lo in range(0, x.size, FRONT_TILE)
    )


def transformed_moments(
    blocks: StoredBlocks,
    steps: tuple[Step, ...],
    executor: ExecutionBackend | None = None,
) -> QuantizedMoments:
    """Exact moments of ``blocks`` after ``steps``: what every reduction of a chain reads.

    Equal to ``QuantizedMoments.of`` of the whole transformed view (the
    sums are exact integers, so neither tiles nor chunks can change
    them).  The chain runs in its :func:`normal_form`, so a failing guard
    raises the error of the whole-plane order (:func:`apply_steps`)
    before any bin is touched, on every backend.  The body maps both
    planes tile by tile (:func:`tiled_moments`) and the tail shifts the
    moments.  With an ``executor`` the stored bins are summed as
    :meth:`~repro.parallel.backends.ExecutionBackend.run_kernel` chunks
    (:func:`~repro.parallel.kernels.reduce_moments_chunk`, each tiled the
    same way); the constant plane is O(n_blocks) and stays here.
    """
    body, tail = normal_form(steps, blocks)
    if executor is None:
        moments = tiled_moments(blocks.q, body)
    else:
        moments = _chunked_moments(blocks.q, body, executor)
    moments += tiled_moments(blocks.const_outliers, body, blocks.const_lens)
    for shift in tail:
        moments = _affine_moments(moments, 1, shift)
    return moments


def _chunked_moments(
    q: np.ndarray, body: tuple[Step, ...], executor: ExecutionBackend
) -> QuantizedMoments:
    """``tiled_moments(q, body)`` summed as ``executor`` chunks."""
    # The kernels module imports this one.
    from repro.parallel import kernels

    if not isinstance(executor, ExecutionBackend):
        raise TypeError(
            f"executor must be an ExecutionBackend or None, "
            f"got {type(executor).__name__}"
        )
    chunks = [
        {"lo": lo, "hi": hi, "steps": body}
        for lo, hi in even_ranges(q.size, executor.n_workers)
    ]
    run = executor.run_kernel(kernels.reduce_moments_chunk, {"q": q}, chunks)
    return QuantizedMoments.combine(run.results)


def rebuild_stored(
    c: SZOpsCompressed, blocks: StoredBlocks, steps: tuple[Step, ...] = ()
) -> SZOpsCompressed:
    """Re-encode ``blocks`` (a quantized view of ``c``'s geometry) after ``steps``.

    The chain runs in its :func:`normal_form`, so a failing guard raises
    the error of the whole-plane order (:func:`apply_steps`) before any
    bin is touched.  The body runs on the stored blocks' bins one
    block-aligned tile at a time inside the encode front, so each tile is
    transformed, Lorenzo coded and split into signs and magnitudes while
    it is in cache; the constant blocks' outliers go through it as one
    small plane and never touch a payload.  The tail shifts the outliers
    alone.  A stored block whose transformed deltas are all zero
    re-encodes at width 0, i.e. it *becomes* constant (exactly as eager
    scalar multiplication behaves).

    Shared by :func:`repro.core.ops.scalar_mul.scalar_multiply`, the lazy
    fusion runtime (:mod:`repro.runtime.lazy`) and the multivariate
    combine — one encode path is what makes fused and eager chains
    produce identical streams.
    """
    body, tail = normal_form(steps, blocks)
    tile_map = _TileMap(body)
    layout = c.layout
    stored = blocks.stored_mask
    outliers = np.empty(layout.n_blocks, dtype=np.int64)
    new_widths = np.zeros(layout.n_blocks, dtype=np.uint8)
    sign_bytes = payload_bytes = np.zeros(0, dtype=np.uint8)
    outliers[~stored] = tile_map(blocks.const_outliers)
    if blocks.q.size:
        # Only the globally last block may be ragged, so the stored
        # blocks form a block layout of their own.
        front = encode_bins(blocks.q, c.block_size, tile_map)
        outliers[stored] = front.outliers
        new_widths[stored] = front.widths
        sign_bytes, payload_bytes = encode_block_sections(
            front.mags, front.signs, front.widths, blocks.lens
        )
    for shift in tail:
        IntAffine(1, shift).transform(outliers, outliers)
    return SZOpsCompressed(
        shape=c.shape,
        dtype=c.dtype,
        eps=c.eps,
        block_size=c.block_size,
        widths=new_widths,
        outliers=outliers,
        sign_bytes=sign_bytes,
        payload_bytes=payload_bytes,
    )
