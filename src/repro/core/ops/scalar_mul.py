"""Scalar multiplication in partially decompressed space (Section V-A.4).

Multiplication does not commute with the Lorenzo deltas' fixed-length
encoding the way a uniform shift does, so the paper reverts the non-constant
blocks to their quantized values, multiplies, and re-encodes.  Following the
worked example (s = 3.14, eps = 0.01): the scalar is quantized to
``rho_s``, every quantized value is scaled by the *representative* value
``s~ = 2*eps*rho_s`` and re-quantized by rounding::

    q'_i = round(q_i * s~)            # equivalently round(q_i * rho_s * 2eps)

Constant blocks never touch the payload: all their elements equal the
outlier, so ``O' = round(O * s~)`` transforms them in O(1) per block and
they *remain* constant — this is the "partial decompression + constant
blocks" fast path of Table V.

Error semantics: the output decodes to ``2*eps*q'`` with
``|2*eps*q' - s*x_hat| <= eps + |x_hat| * |s~ - s|`` where
``|s~ - s| <= eps``; i.e. a pointwise absolute term plus a relative term
proportional to the scalar's own quantization error, as inherent to the
paper's scheme.
"""

from __future__ import annotations

from repro.core.format import SZOpsCompressed
from repro.core.ops._partial import Requantize, rebuild_stored, stored_quantized
from repro.core.ops.scalar_add import quantized_scalar_shift

__all__ = ["scalar_multiply", "quantized_factor"]

#: How each exported operation propagates the stream's error bound
#: (vocabulary in docs/ANALYSIS.md, checked by lint rule SZL005).
ERROR_PROPAGATION = {"scalar_multiply": "scaled"}


def scalar_multiply(c: SZOpsCompressed, s: float) -> SZOpsCompressed:
    """Multiply every element by the scalar ``s``, re-encoding in place.

    The non-constant blocks are decoded to quantized integers (BF^-1 and
    Lorenzo^-1 only — never inverse quantization), scaled, and re-encoded;
    constant blocks are transformed through their outlier alone.

    Overflow contract: any factor that would push a quantized value to or
    beyond ±2^62 raises :class:`OperationError` — including factors whose
    float64 product overflows to infinity, and scalars so large that their
    own quantization (``floor((s + eps) / 2eps)``) leaves the int64-safe
    range.  ``s = 0`` is well-defined and yields an all-constant zero
    stream.
    """
    # Constant blocks: O(1) per block, no payload involved; stored blocks
    # are decoded, scaled in the quantized integer domain tile by tile, and
    # re-encoded.
    step = Requantize(quantized_factor(s, c.eps))
    return rebuild_stored(c, stored_quantized(c), (step,))


def quantized_factor(s: float, eps: float) -> float:
    """The representative ``2·eps·ρ_s`` a multiplication by ``s`` applies."""
    return quantized_scalar_shift(s, eps)[1]
