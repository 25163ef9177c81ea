"""Blockwise 1-D Lorenzo decorrelation (the LZ stage).

Formula (2) of the paper: within a block, each quantized value is replaced
by its difference from the previous element; the block's first quantized
value is extracted as the *outlier* and the delta slot it leaves behind is
zero.  Spatially smooth data therefore produces small-magnitude deltas,
which is what the fixed-length encoder exploits.

Both directions are fully vectorized: the forward pass is one subtraction
plus a strided store at block starts (into a caller's buffer when the
encode front runs it tile by tile), and the inverse folds the outliers into
the block-start slots and runs an in-place per-block cumulative sum with
the full-block reshape trick (ragged tail handled separately).
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockLayout

__all__ = ["lorenzo_forward", "lorenzo_inverse"]


def lorenzo_forward(
    q: np.ndarray, layout: BlockLayout, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the blockwise 1-D Lorenzo operator.

    Parameters
    ----------
    q : int64 array of quantization bins, shape ``(n_elements,)``.
    layout : block geometry.
    out : optional C-contiguous int64 array of ``q``'s shape (not ``q``
        itself) that receives the deltas, NumPy-style.

    Returns
    -------
    deltas : int64 array, same shape; ``deltas[block_start] == 0``.
    outliers : int64 array of shape ``(n_blocks,)`` — each block's first bin.
    """
    if q.shape != (layout.n_elements,):
        raise ValueError("q must be 1-D and match the layout")
    q = np.ascontiguousarray(q, dtype=np.int64)
    if out is None:
        deltas = np.empty_like(q)
    elif (
        out.shape != q.shape
        or out.dtype != np.int64
        or not out.flags.c_contiguous
        or np.may_share_memory(out, q)
    ):
        raise ValueError(
            "out must be a C-contiguous int64 array matching the layout, "
            "not overlapping q"
        )
    else:
        deltas = out
    B = layout.block_size
    if q.size:
        deltas[0] = 0
        np.subtract(q[1:], q[:-1], out=deltas[1:])
    outliers = q[::B].copy()
    deltas[::B] = 0
    return deltas, outliers


def lorenzo_inverse(
    deltas: np.ndarray,
    outliers: np.ndarray,
    layout: BlockLayout,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Invert :func:`lorenzo_forward`: per-block prefix sum plus the outlier.

    Each block's outlier is added (``+=``) into its first slot, then one
    in-place cumulative sum runs per block, so the result equals
    ``cumsum(deltas) + outlier`` per block in modular int64 even where a
    (doctored) block-start delta is nonzero.  ``out`` follows NumPy's
    convention: a C-contiguous int64 array of the layout's shape that
    receives the result; passing ``deltas`` itself decodes in place.
    """
    if deltas.shape != (layout.n_elements,):
        raise ValueError("deltas must be 1-D and match the layout")
    if outliers.shape != (layout.n_blocks,):
        raise ValueError("outliers must have one entry per block")
    if out is None:
        out = np.array(deltas, dtype=np.int64)
    else:
        if (
            out.shape != deltas.shape
            or out.dtype != np.int64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                "out must be a C-contiguous int64 array matching the layout"
            )
        if out is not deltas:
            np.copyto(out, deltas)
    B = layout.block_size
    # Reconstructs original quantized values (|q| < Q_LIMIT by the
    # quantizer's guard), so the prefix sum stays inside int64.
    out[::B] += outliers
    nf = layout.n_full_blocks
    if nf:
        body = out[: nf * B].reshape(nf, B)
        np.cumsum(body, axis=1, out=body)
    tail = out[nf * B :]
    if tail.size:
        np.cumsum(tail, out=tail)
    return out
