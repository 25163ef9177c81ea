"""Multivariate operations and distance measures (the paper's future work).

Section VII lists "multivariate operations, distance measures, similarity
measures" as planned extensions of SZOps.  This module implements them on
the same partial-decompression machinery as the core operations:

* :func:`add` / :func:`subtract` — elementwise combination of two
  compressed arrays sharing geometry and error bound.  Works in the
  quantized integer domain (``q_c = q_a +- q_b``) and re-encodes; pairs of
  constant blocks are combined in O(1) without touching any payload.
* :func:`dot` / :func:`l2_distance` / :func:`cosine_similarity` —
  computation-as-output measures over two compressed arrays, accumulated
  in the quantized domain with constant x constant block pairs in closed
  form.

Error semantics: with both inputs decoding to ``2*eps*q``, the combined
stream decodes to exactly ``x_hat + y_hat`` (or the difference) — no new
quantization error is introduced, so the result is within ``eps_a + eps_b``
of the sum of the originals.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.encode import encode_bins, encode_block_sections
from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.ops._partial import (
    StoredBlocks,
    ensure_quantized_range,
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


def _full_quantized(blocks: StoredBlocks, lens: np.ndarray) -> np.ndarray:
    """Expand a StoredBlocks view to the full quantized array."""
    n = int(lens.sum())
    q = np.empty(n, dtype=np.int64)
    stored_elems = np.repeat(blocks.stored_mask, lens)
    if blocks.q.size:
        q[stored_elems] = blocks.q
    if blocks.const_outliers.size:
        q[~stored_elems] = np.repeat(blocks.const_outliers, blocks.const_lens)
    return q


def _combine(a: SZOpsCompressed, b: SZOpsCompressed, sign: int) -> SZOpsCompressed:
    _require_compatible(a, b)
    layout = a.layout
    lens = layout.lengths()
    blocks_a = stored_quantized(a)
    blocks_b = stored_quantized(b)

    both_const = ~blocks_a.stored_mask & ~blocks_b.stored_mask
    any_stored = ~both_const

    new_outliers = np.empty(layout.n_blocks, dtype=np.int64)
    new_widths = np.zeros(layout.n_blocks, dtype=np.uint8)

    # Constant x constant pairs: combine outliers, never touch payload.
    const_a = np.zeros(layout.n_blocks, dtype=np.int64)
    const_b = np.zeros(layout.n_blocks, dtype=np.int64)
    const_a[~blocks_a.stored_mask] = blocks_a.const_outliers
    const_b[~blocks_b.stored_mask] = blocks_b.const_outliers
    new_outliers[both_const] = ensure_quantized_range(
        const_a[both_const] + sign * const_b[both_const],
        "compressed-domain combine (constant blocks)",
    )

    if any_stored.any():
        qa = _full_quantized(blocks_a, lens)
        qb = _full_quantized(blocks_b, lens)
        # Combined bins must re-enter the |q| < Q_LIMIT band: without the
        # gate, adjacent near-limit bins make the Lorenzo deltas below
        # (differences of two combined bins) wrap int64 and the re-encoded
        # stream silently decodes to garbage.
        qc = ensure_quantized_range(
            qa + sign * qb, "compressed-domain combine"
        )
        q_sel = qc[np.repeat(any_stored, lens)]
        # The selected blocks keep the one ragged block last: a layout.
        front = encode_bins(q_sel, a.block_size)
        new_outliers[any_stored] = front.outliers
        new_widths[any_stored] = front.widths
        sign_bytes, payload_bytes = encode_block_sections(
            front.mags, front.signs, front.widths, lens[any_stored]
        )
    else:
        sign_bytes = np.zeros(0, dtype=np.uint8)
        payload_bytes = np.zeros(0, dtype=np.uint8)

    return SZOpsCompressed(
        shape=a.shape,
        dtype=a.dtype,
        eps=a.eps,
        block_size=a.block_size,
        widths=new_widths,
        outliers=new_outliers,
        sign_bytes=sign_bytes,
        payload_bytes=payload_bytes,
    )


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


def _pair_moments(a: SZOpsCompressed, b: SZOpsCompressed):
    """(sum qa*qb, sum qa^2, sum qb^2) with const x const pairs closed-form."""
    _require_compatible(a, b)
    lens = a.layout.lengths()
    blocks_a = stored_quantized(a)
    blocks_b = stored_quantized(b)
    both_const = ~blocks_a.stored_mask & ~blocks_b.stored_mask

    s_ab = s_aa = s_bb = 0.0
    if both_const.any():
        const_a = np.zeros(a.n_blocks, dtype=np.float64)
        const_b = np.zeros(a.n_blocks, dtype=np.float64)
        const_a[~blocks_a.stored_mask] = blocks_a.const_outliers
        const_b[~blocks_b.stored_mask] = blocks_b.const_outliers
        w = lens[both_const].astype(np.float64)
        ca = const_a[both_const]
        cb = const_b[both_const]
        s_ab += float((w * ca * cb).sum())
        s_aa += float((w * ca * ca).sum())
        s_bb += float((w * cb * cb).sum())

    any_stored = ~both_const
    if any_stored.any():
        sel_elems = np.repeat(any_stored, lens)
        qa = _full_quantized(blocks_a, lens)[sel_elems].astype(np.float64)
        qb = _full_quantized(blocks_b, lens)[sel_elems].astype(np.float64)
        s_ab += float(np.dot(qa, qb))
        s_aa += float(np.dot(qa, qa))
        s_bb += float(np.dot(qb, qb))
    return s_ab, s_aa, s_bb


def dot(a: SZOpsCompressed, b: SZOpsCompressed) -> float:
    """Inner product of the represented arrays (future-work measure)."""
    s_ab, _, _ = _pair_moments(a, b)
    return (2.0 * a.eps) * (2.0 * b.eps) * s_ab


def l2_distance(a: SZOpsCompressed, b: SZOpsCompressed) -> float:
    """Euclidean distance between the represented arrays."""
    s_ab, s_aa, s_bb = _pair_moments(a, b)
    # With eps_a == eps_b (checked), ||x-y||^2 = (2eps)^2 (s_aa - 2 s_ab + s_bb).
    sq = max((2.0 * a.eps) ** 2 * (s_aa - 2.0 * s_ab + s_bb), 0.0)
    return math.sqrt(sq)


def cosine_similarity(a: SZOpsCompressed, b: SZOpsCompressed) -> float:
    """Cosine similarity of the represented arrays."""
    s_ab, s_aa, s_bb = _pair_moments(a, b)
    denom = math.sqrt(s_aa) * math.sqrt(s_bb)
    # NaN is impossible by construction: s_aa/s_bb are sums of squares of
    # finite int64 bins accumulated in float64, so both are finite and >= 0.
    if denom == 0.0:  # szops: ignore[SZL003]
        raise OperationError("cosine similarity undefined for a zero array")
    return s_ab / denom
