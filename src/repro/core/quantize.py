"""Error-controlled quantization (the QZ stage).

Formula (1) of the paper::

    q_i = floor((a_i + eps) / (2 * eps))

with reconstruction ``a'_i = 2 * eps * q_i``.  Writing
``a_i = 2*eps*q_i - eps + r`` with ``r in [0, 2*eps)`` gives
``a'_i - a_i = eps - r in (-eps, eps]``, i.e. the absolute error is bounded
by ``eps`` for every element — this is the compressor's central invariant
and is property-tested in ``tests/core/test_quantize.py``.

Floating-point caveat: the representative ``2*eps*q`` is itself a rounded
float64 product, so for an input sitting exactly on a bin boundary the
best representable reconstruction can overshoot the bound by half an ulp
of the value.  The practical contract is therefore
``|a' - a| <= eps + 0.5*ulp(|a| + eps)`` — the same contract the reference
SZ implementations provide.  A correction step removes the one other
float64 artifact (the division in Formula (1) occasionally picking the
wrong bin): an element whose error ``err = 2*eps*q - a`` exceeds
``eps + 0.5*ulp(|a| + eps)`` moves one bin towards ``a``.

The correction is evaluated only on candidates with ``|err| > eps``.  That
is exact, not a heuristic: ``0.5*ulp >= 0`` and float64 addition is
monotone, so ``|err| > eps + 0.5*ulp`` implies ``|err| > eps``, and every
element the full test would move is a candidate.  ``np.spacing`` and the
±1 fix then run on the candidates alone (almost none on smooth data), so
the quantizer makes one pass over the input plus one over its error.

All arithmetic happens in float64 regardless of the input dtype so that
float32 inputs do not lose bound guarantees to intermediate rounding;
float32 and float64 inputs are read directly, other dtypes are converted
to float64 once.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import check_eps

__all__ = [
    "Q_LIMIT",
    "quantize",
    "dequantize",
    "quantize_scalar",
    "dequantize_scalar",
]

#: Guard band for quantized magnitudes: every stored bin must satisfy
#: ``|q| < Q_LIMIT``, leaving headroom so a single compressed-domain
#: combine (``q_a ± q_b``, delta coding of adjacent bins) cannot wrap
#: int64.  Shared by the scalar ops and the dataflow lint rules.
Q_LIMIT = np.int64(1) << 62


def quantize(values: np.ndarray, eps: float) -> np.ndarray:
    """Quantize floats to integer bin numbers at absolute error bound ``eps``.

    Returns an int64 array of the same shape.  Non-finite inputs are
    rejected: NaN/Inf cannot be error-bounded and the reference compressors
    treat them as a pre-filtering concern.
    """
    check_eps(eps)
    v = np.asarray(values)
    if v.dtype.type not in (np.float32, np.float64):
        v = v.astype(np.float64)
    shape = v.shape
    v = v.reshape(-1)
    # Overflow and invalid values in the float pipeline are not errors in
    # themselves: the guard below turns every such bin into a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.add(v, eps, dtype=np.float64)
        scaled /= 2.0 * eps
        np.floor(scaled, out=scaled)
        # A non-finite input makes its bin non-finite, and for tiny eps the bin
        # ratio overflows float64 to ±inf even for finite input;
        # floor(±inf).astype(int64) is undefined garbage.  Reject before the
        # cast — mirroring quantize_scalar — so the int domain below only ever
        # sees bins inside the |q| < Q_LIMIT band.
        if scaled.size and (
            not np.all(np.isfinite(scaled))
            or np.abs(scaled).max() >= float(Q_LIMIT)
        ):
            if not np.all(np.isfinite(v)):
                raise ValueError("input contains non-finite values; error-bounded "
                                 "quantization requires finite data")
            raise ValueError(
                f"data at eps {eps!r} overflows the quantized integer range; "
                "increase the error bound"
            )
        q = scaled.astype(np.int64)
        # Formula (1) guarantees the bound in exact arithmetic; float64 rounding
        # of (v + eps) / (2 eps) can push an element one bin off by ~1 ulp of
        # its value.  The correction turns the bound into a hard guarantee; it
        # can only fire where |err| > eps (module docstring), so only those
        # candidates pay for np.spacing.  scaled holds q exactly, so its buffer
        # is reused for err = 2*eps*q - v.
        err = np.multiply(scaled, 2.0 * eps, out=scaled)
        err -= v
        np.abs(err, out=err)
        idx = np.flatnonzero(err > eps)
        if idx.size:
            qc = q[idx]
            vc = v[idx].astype(np.float64)
            err_c = 2.0 * eps * qc.astype(np.float64) - vc
            half_ulp = 0.5 * np.spacing(np.abs(vc) + eps)
            np.subtract(qc, 1, out=qc, where=err_c > eps + half_ulp)
            np.add(qc, 1, out=qc, where=err_c < -(eps + half_ulp))
            q[idx] = qc
    return q.reshape(shape)


def dequantize(bins: np.ndarray, eps: float, dtype=np.float64) -> np.ndarray:
    """Reconstruct representative values ``2 * eps * q`` from bin numbers.

    One ufunc: the float64 product, rounded once into the ``dtype`` output.
    """
    check_eps(eps)
    q = np.asarray(bins)
    out = np.empty(q.shape, dtype=dtype)
    return np.multiply(q, 2.0 * eps, dtype=np.float64, out=out, casting="unsafe")


def quantize_scalar(value: float, eps: float) -> int:
    """Quantize a single scalar; used for the compressed-domain scalar ops."""
    check_eps(eps)
    if not np.isfinite(value):
        raise ValueError(f"scalar operand must be finite, got {value}")
    ratio = np.floor((float(value) + eps) / (2.0 * eps))
    # For extreme scalar/eps combinations the bin ratio overflows float64;
    # int(inf) would raise a bare OverflowError deep in the op, so reject
    # here with a diagnosable message instead.
    if not np.isfinite(ratio):
        raise ValueError(
            f"scalar {value!r} at eps {eps!r} overflows the quantized "
            "integer range"
        )
    return int(ratio)


def dequantize_scalar(bin_index: int, eps: float) -> float:
    """Representative value of a scalar quantization bin."""
    return 2.0 * eps * float(bin_index)
