"""Lazy affine op fusion: compose scalar ops, materialize once.

The paper's motivating workflows are operation *chains* — the climate
anomaly of §VI is literally negate/shift/scale/reduce — yet each eager
partially-decompressed operation pays its own BF⁻¹ + Lorenzo⁻¹ decode and
(for multiplication) a full re-encode.  :class:`LazyStream` instead records
the pending transform symbolically and spends the decode/encode budget
exactly once, when a reduction, serialization, or explicit
:meth:`~LazyStream.materialize` forces it.

Pending transforms are sequences of two primitive quantized-domain steps:

* ``IntAffine(sigma, shift)`` — ``q -> sigma*q + shift`` with ``sigma`` in
  {+1, -1} and an integer ``shift``.  Negation and quantized scalar
  add/subtract are exactly these, and consecutive ones fold: a whole
  negate/add/sub run collapses to a single step.
* ``Requantize(s_rep)`` — ``q -> round(q * s_rep)``, the scalar-multiply
  kernel.  Requantization rounds, so no shift folds across it — keeping it
  as a barrier to shifts is what makes fused chains *bit-identical* to
  applying the ops eagerly one at a time (the eager chain performs the same
  integer ops exactly and rounds at the same points).  Signs are another
  matter: ``rint`` rounds half to even, which is symmetric, so when a chain
  runs (:func:`~repro.core.ops._partial.normal_form`) every negation folds
  into the next multiply's factor, or into the last one's, exactly.
  :attr:`LazyStream.steps` keeps the chain as recorded.

Materialization strategy:

* a pending transform that is purely ``IntAffine`` materializes in **fully
  compressed space** (sign-bitmap flip + outlier shift) — no decode at all;
* any transform containing a ``Requantize`` decodes the stored blocks once
  (through the decoded-block cache) and re-encodes once via the same
  :func:`~repro.core.ops._partial.rebuild_stored` path eager multiplication
  uses: the steps run per block-aligned tile inside the encode front, into
  reused tile-sized buffers, so the chain and the re-encode are one pass
  over the stored bins with no full-size temporaries.  The guards read the
  decoded view's exact bounds up front, signs ride on the multiplies and a
  trailing shift lands on the outliers, so a ``negate → ×s → +b`` chain
  touches each bin with one multiply;
* reductions (:meth:`mean`, :meth:`variance`, :meth:`std`, :meth:`minimum`,
  :meth:`maximum`) skip the re-encode entirely: they take the exact
  :class:`~repro.core.moments.QuantizedMoments` of the transformed
  blocks, so ``k`` scalar ops + reduction cost one decode and zero
  encodes.  Without an ``executor`` those moments are summed tile by
  tile as the steps run (:func:`~repro.core.ops._partial.transformed_moments`),
  so no transformed plane is ever made in full.  A trailing
  negate/add/sub run maps moments to moments exactly,
  so it costs no pass over the data at all: without a multiply, and with
  no ``executor``, the chain reads the base stream's memoised moments
  (:func:`~repro.core.ops._partial.stored_moments`).

Exactness: every reduction of a fused chain equals the eager result bit
for bit — the moments are exact integers, and the same integers whether a
block is stored or (after a multiplication) constant.  Overflow checking
for multiplications happens at materialization/reduction time rather than
at call time; the error raised is the same :class:`OperationError`.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import (
    IntAffine,
    Requantize,
    Step,
    StoredBlocks,
    apply_steps,
    rebuild_stored,
    stored_moments,
    stored_quantized,
    transformed_moments,
)
from repro.core.ops.negate import negate as eager_negate
from repro.core.ops.scalar_add import quantized_scalar_shift, shift_outliers
from repro.core.ops.scalar_mul import quantized_factor
from repro.core.quantize import dequantize
from repro.parallel.backends import ExecutionBackend
from repro.runtime.reduce import chunked_moments

__all__ = ["LazyStream", "IntAffine", "Requantize", "lazy"]


class LazyStream:
    """A compressed stream plus a pending fused ``(a·x + b)``-style transform.

    Immutable: every operation returns a new ``LazyStream`` sharing the base
    container, so a partially built chain can be forked freely.  The base
    container itself is never mutated.

    >>> import numpy as np
    >>> from repro import SZOps
    >>> from repro.runtime import lazy
    >>> codec = SZOps()
    >>> data = np.cumsum(np.random.default_rng(0).normal(size=4096)) * 1e-2
    >>> c = codec.compress(data, 1e-3)
    >>> chain = lazy(c).negate().scalar_multiply(0.1)
    >>> chain.pending_ops
    2
    >>> mu = chain.mean()          # one decode, no encode
    >>> out = chain.materialize()  # same decode (cached), one encode
    """

    __slots__ = ("base", "steps")

    def __init__(self, base: SZOpsCompressed, steps: tuple[Step, ...] = ()) -> None:
        if isinstance(base, LazyStream):  # idempotent wrapping
            steps = base.steps + tuple(steps)
            base = base.base
        self.base = base
        self.steps = tuple(steps)

    # ------------------------------------------------------------------ meta

    @property
    def eps(self) -> float:
        return self.base.eps

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape

    @property
    def n_elements(self) -> int:
        return self.base.n_elements

    @property
    def pending_ops(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyStream(shape={self.base.shape}, eps={self.base.eps:g}, "
            f"steps={list(self.steps)!r})"
        )

    # ------------------------------------------------------------------ fusable ops

    def _push_affine(self, sigma: int, shift: int) -> "LazyStream":
        steps = list(self.steps)
        if steps and isinstance(steps[-1], IntAffine):
            last = steps[-1]
            folded = IntAffine(last.sigma * sigma, sigma * last.shift + shift)
            if folded.is_identity:
                steps.pop()
            else:
                steps[-1] = folded
        else:
            step = IntAffine(sigma, shift)
            if not step.is_identity:
                steps.append(step)
        return LazyStream(self.base, tuple(steps))

    def negate(self) -> "LazyStream":
        """Fuse an elementwise negation (exact, folds with adds/subs)."""
        return self._push_affine(-1, 0)

    def scalar_add(self, s: float) -> "LazyStream":
        """Fuse ``+ s``; the scalar is quantized now, at the stream's eps."""
        return self._push_affine(1, quantized_scalar_shift(s, self.base.eps)[0])

    def scalar_subtract(self, s: float) -> "LazyStream":
        """Fuse ``- s`` (quantized-scalar deduction, like the eager op)."""
        return self._push_affine(1, -quantized_scalar_shift(s, self.base.eps)[0])

    def scalar_multiply(self, s: float) -> "LazyStream":
        """Fuse ``* s``.  Overflow is checked when the chain is forced."""
        s_rep = quantized_factor(s, self.base.eps)
        return LazyStream(self.base, self.steps + (Requantize(s_rep),))

    def apply(self, name: str, scalar: float | None = None) -> "LazyStream":
        """Fuse a named Table II pointwise operation (dispatch helper)."""
        if name == "negation":
            return self.negate()
        if name == "scalar_add":
            return self.scalar_add(scalar)
        if name == "scalar_subtract":
            return self.scalar_subtract(scalar)
        if name == "scalar_multiply":
            return self.scalar_multiply(scalar)
        raise OperationError(f"operation {name!r} is not fusable")

    # ------------------------------------------------------------------ forcing

    def _transformed_blocks(self) -> StoredBlocks:
        """Decode once (cached) and apply every pending step vectorized."""
        blocks = stored_quantized(self.base)
        if not self.steps:
            return blocks
        q, const = apply_steps(self.steps, blocks.q, blocks.const_outliers)
        return StoredBlocks(
            q=q,
            lens=blocks.lens,
            stored_mask=blocks.stored_mask,
            const_outliers=const,
            const_lens=blocks.const_lens,
        )

    def materialize(self) -> SZOpsCompressed:
        """Force the pending transform into a new compressed container.

        A purely integer-affine transform is applied in fully compressed
        space (bitmap flip + outlier shift, exactly the eager negation /
        scalar-add kernels); a transform containing a requantization decodes
        the stored blocks once and re-encodes once.
        """
        if not self.steps:
            return self.base
        if all(isinstance(s, IntAffine) for s in self.steps):
            # Folding leaves at most one IntAffine between barriers, and no
            # barriers exist here — a single compressed-space application.
            (step,) = self.steps
            out = eager_negate(self.base) if step.sigma < 0 else self.base
            return shift_outliers(out, step.shift)
        return rebuild_stored(self.base, stored_quantized(self.base), self.steps)

    # ------------------------------------------------------------------ reductions

    def _moments(self, executor: ExecutionBackend | None = None) -> QuantizedMoments:
        steps = self.steps
        if not steps and executor is None:
            return stored_moments(self.base)
        if steps and isinstance(steps[-1], IntAffine):
            # sigma*q + shift maps exact moments to exact moments, so the
            # base stream's memoised sums serve a negate/add/sub suffix.
            inner = LazyStream(self.base, steps[:-1])._moments(executor)
            return steps[-1].apply_moments(inner)
        if executor is None:
            return transformed_moments(stored_quantized(self.base), steps)
        return chunked_moments(self._transformed_blocks(), executor)

    def mean(self, executor: ExecutionBackend | None = None) -> float:
        """Mean of the transformed stream — one decode, no encode."""
        return self._moments(executor).finish("mean", self.base.eps)

    def variance(
        self, ddof: int = 0, executor: ExecutionBackend | None = None
    ) -> float:
        """Variance of the transformed stream (exact, quantized domain)."""
        return self._moments(executor).finish("variance", self.base.eps, ddof)

    def std(self, ddof: int = 0, executor: ExecutionBackend | None = None) -> float:
        """Standard deviation of the transformed stream."""
        return self._moments(executor).finish("std", self.base.eps, ddof)

    def minimum(self) -> float:
        return self._moments().finish("minimum", self.base.eps)

    def maximum(self) -> float:
        return self._moments().finish("maximum", self.base.eps)

    def quantized_moments(self) -> QuantizedMoments:
        """Exact quantized moments of the transformed stream.

        Everything stays in the *quantized integer* domain — no ``2*eps``
        scaling — so partials from disjoint chunks of one array add into
        exactly the whole-array moments, which is what lets
        ``repro.cluster`` combine per-shard PREDUCE replies into a result
        bit-identical to a single-node reduction.
        """
        return self._moments()

    def summary_statistics(
        self, ddof: int = 0, executor: ExecutionBackend | None = None
    ) -> dict[str, float]:
        """Mean, variance and std of the transformed stream in one decode."""
        return self._moments(executor).summary(self.base.eps, ddof)

    # ------------------------------------------------------------------ decode

    def quantized(self) -> np.ndarray:
        """Transformed quantized integers in element order (no encode)."""
        return self._transformed_blocks().expand(self.base.layout.lengths())

    def decompress(self) -> np.ndarray:
        """Float reconstruction of the transformed stream (no encode)."""
        return dequantize(self.quantized(), self.base.eps, self.base.dtype).reshape(
            self.base.shape
        )

    def to_bytes(self) -> bytes:
        """Serialize — a forcing point: materializes, then ``to_bytes``."""
        return self.materialize().to_bytes()


def lazy(c: SZOpsCompressed | LazyStream) -> LazyStream:
    """Wrap a compressed container for fused chaining (idempotent)."""
    if isinstance(c, LazyStream):
        return c
    return LazyStream(c)
