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
from repro.core.ops._partial import ensure_quantized_range
from repro.core.quantize import dequantize_scalar, quantize_scalar

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
    """``c`` with its outlier plane shifted by ``rho`` bins, guarding int64 overflow.

    The outlier plane holds quantized first values, guarded to
    ``|q| < Q_LIMIT`` at compression time; an unchecked shift by a huge
    quantized scalar could wrap int64 and decode to a valid-looking stream
    representing garbage.  The widths, signs and payload are shared with
    ``c``.  Shared by the eager kernels below and the lazy fusion runtime
    so both paths fail identically.
    """
    if not rho:
        return c
    return replace(c, outliers=ensure_quantized_range(c.outliers, "scalar shift", rho))


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

