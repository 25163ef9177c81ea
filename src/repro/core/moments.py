"""Exact quantized moments: the one algebra behind every reduction.

Paper §V-B computes mean, variance and standard deviation as integer sums
over the quantized bins, scaled by ``2*eps`` once at the end.
:class:`QuantizedMoments` holds those sums — ``s1 = Σq``, ``s2 = Σq²``,
the extremes ``lo``/``hi`` and the count ``n`` — as Python ints, so

* :meth:`QuantizedMoments.of` reads them off a decoded view in one pass
  (constant blocks in closed form, weighted by their lengths);
* ``a + b`` (and :meth:`QuantizedMoments.combine`) adds partials from
  disjoint pieces of one array *exactly*, so any chunking, backend, rank
  count or cluster placement yields the same totals;
* :meth:`QuantizedMoments.finish` turns the totals into a scalar, with
  variance computed as ``(n·s2 − s1²) / (n·(n − ddof))`` on exact ints and
  rounded once — no cancellation, however large ``Σq²`` grows.

The per-plane kernel stays in int64: after ``min``/``max`` it knows the
worst-case magnitude, and it runs ``sum`` and a (non-BLAS) integer
``np.dot`` directly when ``n·max|q|²`` fits int64.  Otherwise it centres
the plane on ``c = (lo + hi) // 2`` (``Σq² = Σd² + 2cΣd + n·c²`` with
``d = q − c``), and if even the centred squares overflow it sums in
chunks short enough to stay exact.  Only a plane whose centred half-spread
squared exceeds int64 (a spread wider than about 6e9 bins) falls back to
Python ints; that path is exact for every ``|q| < Q_LIMIT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ops._partial import StoredBlocks

__all__ = ["QuantizedMoments", "REDUCTIONS"]

#: Scalars :meth:`QuantizedMoments.finish` can derive.
REDUCTIONS = ("mean", "variance", "std", "minimum", "maximum", "range")

_I64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class QuantizedMoments:
    """``(Σq, Σq², min q, max q, n)`` of a quantized array, as exact ints.

    The empty moments (``n == 0``) are the identity of ``+``; their
    ``lo``/``hi`` carry no meaning.
    """

    s1: int
    s2: int
    lo: int
    hi: int
    n: int

    @classmethod
    def of(cls, blocks: "StoredBlocks") -> "QuantizedMoments":
        """Moments of a decoded view: stored values plus constant blocks."""
        return cls.of_values(blocks.q) + cls.of_values(
            blocks.const_outliers, blocks.const_lens
        )

    @classmethod
    def of_values(
        cls, x: np.ndarray, counts: np.ndarray | None = None
    ) -> "QuantizedMoments":
        """Moments of an int64 plane, ``x[i]`` counted ``counts[i]`` times."""
        if not x.size:
            return EMPTY
        lo, hi = int(x.min()), int(x.max())
        n = x.size if counts is None else int(counts.sum())
        wmax = 1 if counts is None else int(counts.max())
        peak = max(hi, -lo)
        # Centre only when the raw squares could overflow: the common case
        # then costs min, max, sum and one integer dot, with no temporary.
        c = (lo + hi) // 2 if n * peak * peak > _I64_MAX else 0
        d1, d2 = _exact_sums(x - c if c else x, counts, max(hi - c, c - lo), wmax)
        return cls(d1 + n * c, d2 + 2 * c * d1 + n * c * c, lo, hi, n)

    def __add__(self, other: "QuantizedMoments") -> "QuantizedMoments":
        if not other.n:
            return self
        if not self.n:
            return other
        return QuantizedMoments(
            self.s1 + other.s1,
            self.s2 + other.s2,
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.n + other.n,
        )

    @staticmethod
    def combine(parts: Iterable["QuantizedMoments"]) -> "QuantizedMoments":
        """Exact sum of partials; the order and grouping cannot matter."""
        return reduce(QuantizedMoments.__add__, parts, EMPTY)

    def finish(self, reduction: str, eps: float, ddof: int = 0) -> float:
        """Scale the exact sums into ``reduction`` at error bound ``eps``.

        ``mean`` is ``2eps·(s1/n)`` with one correctly rounded int
        division; ``variance`` is ``(2eps)²·((n·s2 − s1²)/(n·(n−ddof)))``
        with the bracket rounded once, and ``std`` its square root.
        """
        n = self.n
        if not n:
            raise ValueError(f"cannot take the {reduction} of an empty container")
        scale = 2.0 * eps
        if reduction == "mean":
            return scale * (self.s1 / n)
        if reduction == "minimum":
            return scale * self.lo
        if reduction == "maximum":
            return scale * self.hi
        if reduction == "range":
            return scale * (self.hi - self.lo)
        if reduction in ("variance", "std"):
            if n - ddof <= 0:
                raise ValueError(
                    f"variance needs n - ddof > 0, got n={n}, ddof={ddof}"
                )
            num = n * self.s2 - self.s1 * self.s1
            # A zero spread is exactly 0.0, even where (2eps)² overflows.
            var = scale * scale * (num / (n * (n - ddof))) if num else 0.0
            return var if reduction == "variance" else math.sqrt(var)
        raise ValueError(
            f"unknown reduction {reduction!r}; valid: {', '.join(REDUCTIONS)}"
        )

    def summary(self, eps: float, ddof: int = 0) -> dict[str, float]:
        """Mean, variance and standard deviation from the one set of sums."""
        var = self.finish("variance", eps, ddof)
        return {"mean": self.finish("mean", eps), "variance": var, "std": math.sqrt(var)}


EMPTY = QuantizedMoments(0, 0, 0, 0, 0)


def _exact_sums(
    d: np.ndarray, counts: np.ndarray | None, peak: int, wmax: int
) -> tuple[int, int]:
    """``(Σw·d, Σw·d²)`` exactly, for ``|d| <= peak`` and weights ``<= wmax``.

    Each int64 pass covers at most ``cap`` elements, so no partial can
    exceed ``cap·wmax·peak² <= 2^63 − 1``; the partials add as Python ints.
    """
    cap = _I64_MAX // max(peak * peak * wmax, 1)
    if not cap:  # one weighted square alone may overflow int64
        vals = d.tolist()
        weights = [1] * len(vals) if counts is None else counts.tolist()
        return (
            sum(w * v for w, v in zip(weights, vals)),
            sum(w * v * v for w, v in zip(weights, vals)),
        )
    s1 = s2 = 0
    for start in range(0, d.size, cap):
        x = d[start : start + cap]
        wx = x if counts is None else x * counts[start : start + cap]
        s1 += int(wx.sum())
        s2 += int(np.dot(wx, x))
    return s1, s2
