"""Multivariate operations and distance measures (the paper's future work).

Section VII lists "multivariate operations, distance measures, similarity
measures" as planned extensions of SZOps.  This module implements them on
the same partial-decompression machinery as the core operations:

* :func:`add` / :func:`subtract` — elementwise combination of two
  compressed arrays sharing geometry and error bound.  Works in the
  quantized integer domain (``q_c = q_a +- q_b``) and re-encodes; pairs of
  constant blocks are combined in O(1) without touching any payload.
* :func:`dot` / :func:`l2_distance` / :func:`cosine_similarity` —
  computation-as-output measures over two compressed arrays, from exact
  integer sums of squares in the quantized domain
  (:class:`~repro.core.moments.QuantizedMoments`): ``Σ(q_a - q_b)²``
  for the distance, and ``Σq_a·q_b = (Σ(q_a + q_b)² - Σq_a² - Σq_b²) / 2``
  for the inner product, with ``Σq²`` of each operand memoised on its
  decoded view.

Error semantics: with both inputs decoding to ``2*eps*q``, the combined
stream decodes to exactly ``x_hat + y_hat`` (or the difference) — no new
quantization error is introduced, so the result is within ``eps_a + eps_b``
of the sum of the originals.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import (
    StoredBlocks,
    ensure_quantized_range,
    rebuild_stored,
    stored_moments,
    stored_quantized,
)

__all__ = ["add", "subtract", "dot", "l2_distance", "cosine_similarity"]

#: How each exported operation propagates the stream's error bound
#: (vocabulary in docs/ANALYSIS.md, checked by lint rule SZL005).
ERROR_PROPAGATION = {
    "add": "bounded-additive",
    "subtract": "bounded-additive",
    "dot": "computation",
    "l2_distance": "computation",
    "cosine_similarity": "computation",
}


def _require_compatible(a: SZOpsCompressed, b: SZOpsCompressed) -> None:
    if a.shape != b.shape:
        raise OperationError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.block_size != b.block_size:
        raise OperationError(
            f"block size mismatch: {a.block_size} vs {b.block_size}"
        )
    if not math.isclose(a.eps, b.eps, rel_tol=1e-12):
        raise OperationError(
            f"error-bound mismatch: {a.eps} vs {b.eps}; re-quantize one "
            "operand first"
        )


def _combine(a: SZOpsCompressed, b: SZOpsCompressed, sign: int) -> SZOpsCompressed:
    _require_compatible(a, b)
    lens = a.layout.lengths()
    blocks_a = stored_quantized(a)
    blocks_b = stored_quantized(b)

    both_const = ~blocks_a.stored_mask & ~blocks_b.stored_mask
    any_stored = ~both_const

    # Constant x constant pairs: combine outliers, never touch payload.
    const_a = np.zeros(lens.size, dtype=np.int64)
    const_b = np.zeros(lens.size, dtype=np.int64)
    const_a[~blocks_a.stored_mask] = blocks_a.const_outliers
    const_b[~blocks_b.stored_mask] = blocks_b.const_outliers
    const = ensure_quantized_range(
        const_a[both_const] + sign * const_b[both_const],
        "compressed-domain combine (constant blocks)",
    )

    q_sel = np.zeros(0, dtype=np.int64)
    if any_stored.any():
        # Combined bins must re-enter the |q| < Q_LIMIT band: without the
        # gate, adjacent near-limit bins make the Lorenzo deltas of the
        # re-encode (differences of two combined bins) wrap int64 and the
        # stream silently decodes to garbage.
        qc = ensure_quantized_range(
            blocks_a.expand(lens) + sign * blocks_b.expand(lens),
            "compressed-domain combine",
        )
        q_sel = qc[np.repeat(any_stored, lens)]
    # The selected blocks keep the one ragged block last: a layout.
    combined = StoredBlocks(q_sel, lens[any_stored], any_stored, const, lens[both_const])
    return rebuild_stored(a, combined)


def add(a: SZOpsCompressed, b: SZOpsCompressed) -> SZOpsCompressed:
    """Elementwise ``a + b`` of two compressed arrays (future-work op).

    Note the result decodes to ``2*eps*(q_a + q_b)`` which is exactly
    ``x_hat + y_hat`` — the MPI-reduction use case of Section I needs
    precisely this kernel to aggregate without decompressing.
    """
    return _combine(a, b, +1)


def subtract(a: SZOpsCompressed, b: SZOpsCompressed) -> SZOpsCompressed:
    """Elementwise ``a - b`` of two compressed arrays (future-work op)."""
    return _combine(a, b, -1)


def _combined_sq_sum(a: SZOpsCompressed, b: SZOpsCompressed, sign: int) -> int:
    """``Σ(q_a + sign·q_b)²`` exactly (``|q_a ± q_b| < 2^63`` fits int64)."""
    _require_compatible(a, b)
    lens = a.layout.lengths()
    qa = stored_quantized(a).expand(lens)
    qb = stored_quantized(b).expand(lens)
    return QuantizedMoments.of_values(qa + qb if sign > 0 else qa - qb).s2


def _cross_sum(a: SZOpsCompressed, b: SZOpsCompressed) -> tuple[int, int, int]:
    """``(Σq_a·q_b, Σq_a², Σq_b²)`` as exact ints, via ``(a+b)² = a² + 2ab + b²``."""
    s_plus = _combined_sq_sum(a, b, +1)
    s_aa = stored_moments(a).s2
    s_bb = stored_moments(b).s2
    return (s_plus - s_aa - s_bb) // 2, s_aa, s_bb


def dot(a: SZOpsCompressed, b: SZOpsCompressed) -> float:
    """Inner product of the represented arrays (future-work measure)."""
    s_ab, _, _ = _cross_sum(a, b)
    return (2.0 * a.eps) * (2.0 * b.eps) * s_ab


def l2_distance(a: SZOpsCompressed, b: SZOpsCompressed) -> float:
    """Euclidean distance between the represented arrays."""
    # With eps_a == eps_b (checked), ||x-y|| = 2eps * sqrt(Σ(q_a - q_b)^2).
    return 2.0 * a.eps * math.sqrt(_combined_sq_sum(a, b, -1))


def cosine_similarity(a: SZOpsCompressed, b: SZOpsCompressed) -> float:
    """Cosine similarity of the represented arrays."""
    s_ab, s_aa, s_bb = _cross_sum(a, b)
    if not (s_aa and s_bb):
        raise OperationError("cosine similarity undefined for a zero array")
    return s_ab / math.sqrt(s_aa * s_bb)
