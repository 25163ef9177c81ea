"""Scalar addition and subtraction in fully compressed space (Section V-A.2/3).

Adding a constant ``s`` shifts every quantized value by the same amount, so
every intra-block delta is unchanged — only the per-block outliers (each
block's first quantized value) move.  SZOps therefore quantizes the scalar
once, ``rho_s = floor((s + eps) / (2 eps))``, and adds (or subtracts) it to
the outlier plane.  The sign bitmap and fixed-length payload are untouched:
the operation runs in fully compressed space.

Error semantics: the result decodes to ``x_hat + 2*eps*rho_s``, and
``|2*eps*rho_s - s| <= eps``, so the output is within ``eps`` of
``x_hat + s`` (and within ``2*eps`` of ``x + s``).  The stream's recorded
error bound is unchanged, matching the paper's Table II statement that all
operations preserve error-boundedness because inverse quantization is never
applied.

Note on the paper's worked example: Section V-A.2 prints a mutated delta
array and sign bitmap after the addition, which contradicts the
construction one paragraph earlier (a uniform shift of the quantization
bins cannot change their differences).  We implement the mathematically
consistent semantics — only the outlier plane changes — which is also the
only reading under which the operation is "fully compressed space" as the
paper claims.  DESIGN.md records this deviation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.ops._partial import IntAffine, range_overflow, stored_bounds
from repro.core.quantize import Q_LIMIT, dequantize_scalar, quantize_scalar

__all__ = [
    "scalar_add",
    "scalar_subtract",
    "quantized_scalar_shift",
    "shift_outliers",
]

#: How each exported operation propagates the stream's error bound
#: (vocabulary in docs/ANALYSIS.md, checked by lint rule SZL005).
ERROR_PROPAGATION = {
    "scalar_add": "preserved",
    "scalar_subtract": "preserved",
}


def quantized_scalar_shift(s: float, eps: float) -> tuple[int, float]:
    """Quantize the scalar operand; returns (bin index, representative value).

    A scalar that is not finite, or whose bin index overflows float64 at
    ``eps``, raises :class:`OperationError`, the same error every scalar
    op (add, subtract, multiply; eager or lazy) reports for it.
    """
    try:
        rho = quantize_scalar(s, eps)
    except (OverflowError, ValueError) as exc:
        raise OperationError(
            f"scalar {s!r} cannot be quantized at eps {eps!r}: {exc}"
        ) from None
    return rho, dequantize_scalar(rho, eps)


def shift_outliers(c: SZOpsCompressed, rho: int) -> SZOpsCompressed:
    """``c`` with its outlier plane shifted by ``rho`` bins, guarding the bin range.

    Every bin moves by ``rho``, so ``|q| + |rho| < Q_LIMIT`` must hold for
    all of them, not just the outliers: past the guard band int64 wraps
    (here or in the next op's Lorenzo deltas) and the stream decodes to
    garbage.  The guard refuses exactly what a fused shift
    (:meth:`~repro.core.ops._partial.IntAffine.bounds_after`) refuses on
    the exact bins, but reads them only when :func:`_clears` cannot vouch
    for the shift from the outlier and width planes alone.  The widths,
    signs and payload are shared with ``c``.  Shared by the eager kernels
    below and the lazy fusion runtime so both paths fail identically.
    """
    if not rho:
        return c
    if not _clears(c, rho):
        lo, hi = stored_bounds(c) or (0, 0)
        if max(hi, -lo) + abs(rho) >= int(Q_LIMIT):
            raise range_overflow("scalar shift")
    return replace(c, outliers=IntAffine(1, rho).transform(c.outliers))


def _clears(c: SZOpsCompressed, rho: int) -> bool:
    """Whether every bin of ``c`` provably stays in range after ``+ rho``.

    A block's bins are its outlier plus a prefix sum of at most
    ``block_size`` deltas below ``2^w`` each, so ``max|O|`` plus
    ``block_size·2^max(w)`` bounds them all: O(n_blocks) in exact ints,
    with no payload byte read.  ``False`` only means the bound is not
    enough to decide.
    """
    outliers = c.outliers
    if not outliers.size:
        return abs(rho) < int(Q_LIMIT)
    peak = max(int(outliers.max()), -int(outliers.min())) + abs(rho)
    return peak < int(Q_LIMIT) - (int(c.block_size) << int(c.widths.max()))


def scalar_add(c: SZOpsCompressed, s: float) -> SZOpsCompressed:
    """Add the scalar ``s`` to every element, in fully compressed space.

    Cost: one integer add over the outlier plane — O(n_blocks), independent
    of the array size and of the payload, the cheapest operation after
    negation in Figures 5/6.
    """
    rho, _ = quantized_scalar_shift(s, c.eps)
    return shift_outliers(c, rho)


def scalar_subtract(c: SZOpsCompressed, s: float) -> SZOpsCompressed:
    """Subtract the scalar ``s`` from every element (Section V-A.3).

    Mirrors :func:`scalar_add` with the quantized scalar *deducted* from the
    outliers, exactly as the paper specifies (note this differs from
    ``scalar_add(c, -s)`` by at most one quantization bin, since
    ``floor((-s+eps)/2eps) != -floor((s+eps)/2eps)`` in general; both
    readings stay within the error bound).
    """
    rho, _ = quantized_scalar_shift(s, c.eps)
    return shift_outliers(c, -rho)

