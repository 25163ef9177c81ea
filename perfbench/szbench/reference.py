"""Reference answers for the compressed-domain reductions.

References come from the *decompressed* quantized integers (the
decompressed array is exactly ``2*eps*q``), summed exactly as Python
integers in set-up.  mean / minimum / maximum must then match the
compressed-domain result bit for bit: the library scales the same exact
integer sums with the same expressions.  variance / std are compared at
``VARIANCE_RTOL``, the bound ``repro.cluster`` uses for its own variance
identity checks; it is never widened to absorb a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

VARIANCE_RTOL = 1e-9

REDUCTIONS = ("mean", "variance", "std", "minimum", "maximum")


def _exact_sum_sq(q: np.ndarray) -> int:
    """``sum(q*q)`` exactly, in int64 pieces (|q| < 2^40 keeps them exact)."""
    if q.size == 0:
        return 0
    peak = int(np.abs(q).max())
    if peak >= 1 << 40 or q.size >= 1 << 22:
        return sum(v * v for v in q.tolist())
    a = np.abs(q)
    hi = a >> 20
    lo = a & ((1 << 20) - 1)
    return (
        (int((hi * hi).sum()) << 40)
        + (int((hi * lo).sum()) << 21)
        + int((lo * lo).sum())
    )


@dataclass(frozen=True)
class Moments:
    """Exact integer moments of a quantized array."""

    n: int
    s1: int
    s2: int
    lo: int
    hi: int
    eps: float

    @classmethod
    def of(cls, q: np.ndarray, eps: float) -> "Moments":
        q = np.asarray(q, dtype=np.int64).reshape(-1)
        return cls(
            n=int(q.size),
            s1=int(q.sum()),
            s2=_exact_sum_sq(q),
            lo=int(q.min()),
            hi=int(q.max()),
            eps=float(eps),
        )

    def negate_shift(self, shift: int) -> "Moments":
        """Moments of ``shift - q`` (a fused negate + scalar_add prefix)."""
        n, h = self.n, int(shift)
        return Moments(
            n=n,
            s1=n * h - self.s1,
            s2=self.s2 - 2 * h * self.s1 + n * h * h,
            lo=h - self.hi,
            hi=h - self.lo,
            eps=self.eps,
        )

    def value(self, reduction: str) -> float:
        scale = 2.0 * self.eps
        if reduction == "mean":
            return scale * (float(self.s1) / self.n)
        if reduction == "minimum":
            return scale * self.lo
        if reduction == "maximum":
            return scale * self.hi
        var_q = Fraction(self.n * self.s2 - self.s1 * self.s1, self.n * self.n)
        var = scale * scale * float(var_q)
        if reduction == "variance":
            return var
        if reduction == "std":
            return math.sqrt(var)
        raise ValueError(f"unknown reduction {reduction!r}")


def matches(reduction: str, got: float, want: float) -> bool:
    """Bit-identical for mean/min/max; ``VARIANCE_RTOL`` for variance/std."""
    if reduction in ("variance", "std"):
        return abs(got - want) <= VARIANCE_RTOL * abs(want)
    return got == want
