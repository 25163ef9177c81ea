"""Validation utilities asserting the compressor's central invariants.

These helpers are used by the test suite and by the benchmark harness's
self-checks; they raise :class:`~repro.core.errors.ErrorBoundViolation`
with a diagnostic payload when an invariant fails.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ErrorBoundViolation
from repro.core.format import SZOpsCompressed

__all__ = [
    "bound_slack",
    "check_error_bound",
    "check_roundtrip",
    "max_abs_error",
    "psnr",
]


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest pointwise absolute difference, computed in float64."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (inf for an exact reconstruction)."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    rng = float(a.max() - a.min()) if a.size else 0.0
    mse = float(np.mean((a - b) ** 2)) if a.size else 0.0
    if mse == 0.0:
        return float("inf")
    if rng == 0.0:
        return float("-inf")
    return 10.0 * np.log10(rng * rng / mse)


def check_error_bound(
    original: np.ndarray, reconstructed: np.ndarray, eps: float, slack: float = 0.0
) -> float:
    """Assert the pointwise error bound; returns the observed max error.

    ``slack`` admits a small float32 representation allowance when the
    reconstruction dtype is narrower than float64 (the quantization math is
    exact in float64; casting the representative ``2*eps*q`` to float32 can
    add up to half a float32 ulp of the value).
    """
    err = max_abs_error(original, reconstructed)
    limit = eps + slack
    if err > limit:
        raise ErrorBoundViolation(
            f"error bound violated: max |x - x_hat| = {err:.6e} > "
            f"eps + slack = {limit:.6e}"
        )
    return err


def bound_slack(data: np.ndarray, eps: float) -> float:
    """Slack for floating-point representation of the reconstruction.

    Two effects: the float64 representative ``2*eps*q`` is rounded (half an
    ulp of the value), and float32 containers additionally cast it down
    (one float32 ulp).  See the note in :mod:`repro.core.quantize`.  Every
    bound check (``check_roundtrip``, the benchmark harness, the test
    suite) admits ``eps + bound_slack(data, eps)``.
    """
    arr = np.asarray(data)
    if arr.size == 0:
        return 0.0
    scale = float(np.max(np.abs(arr))) + eps
    slack = float(np.spacing(scale))
    if arr.dtype == np.float32:
        slack += float(np.spacing(np.float32(scale)))
    return slack


def check_roundtrip(codec, data: np.ndarray, error_bound: float, mode: str = "abs"):
    """Compress + decompress ``data`` and assert the bound; returns both.

    Works with any codec exposing ``compress(data, error_bound, mode)`` and
    ``decompress(c)`` — the SZOps core and every baseline conform.
    """
    c = codec.compress(data, error_bound, mode=mode)
    reconstructed = codec.decompress(c)
    eps = c.eps if isinstance(c, SZOpsCompressed) else getattr(c, "eps", error_bound)
    check_error_bound(data, reconstructed, eps, slack=bound_slack(data, eps))
    return c, reconstructed
