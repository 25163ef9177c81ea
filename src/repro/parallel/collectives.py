"""Compressed collective reductions over the simulated communicator.

The paper's motivating MPI use case (Section I, ref [18]): processes hold
error-bounded *compressed* data and need global statistics.  The
traditional path fully decompresses every stream before reducing.  With
SZOps, each rank reads its exact
:class:`~repro.core.moments.QuantizedMoments` directly from the
compressed stream (constant blocks in closed form) and only those few
integers travel through the collective — no rank ever materializes a full
decompressed array.

Ranks sharing an error bound add their moments exactly, so the global
statistics are bit-identical to a single-node reduction of the
concatenated array.  Ranks may also carry different bounds: each bound's
moments are then scaled to value units as exact rationals and rounded
once.  Both paths are provided so the MPI example and its benchmark can
compare them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.core.compressor import SZOps
from repro.core.format import SZOpsCompressed
from repro.core.ops._partial import stored_moments
from repro.core.moments import QuantizedMoments
from repro.parallel.simmpi import SimComm

__all__ = [
    "compressed_mean_allreduce",
    "compressed_stats_allreduce",
    "traditional_stats_allreduce",
]

#: Moments per error bound: what one rank contributes and what the
#: allreduce accumulates.
EpsMoments = dict[float, QuantizedMoments]


def _local_moments(c: SZOpsCompressed) -> EpsMoments:
    return {c.eps: stored_moments(c)}


def _merge(a: EpsMoments, b: EpsMoments) -> EpsMoments:
    out = dict(a)
    for eps, m in b.items():
        out[eps] = out[eps] + m if eps in out else m
    return out


def _global_stats(groups: EpsMoments) -> dict[str, float]:
    if len(groups) == 1:
        ((eps, m),) = groups.items()
        return {**m.summary(eps), "count": m.n}
    s1 = sum(Fraction(2.0 * eps) * m.s1 for eps, m in groups.items())
    s2 = sum(Fraction(2.0 * eps) ** 2 * m.s2 for eps, m in groups.items())
    n = sum(m.n for m in groups.values())
    var = float((n * s2 - s1 * s1) / (n * n))
    return {"mean": float(s1 / n), "variance": var, "std": math.sqrt(var), "count": n}


def compressed_mean_allreduce(comm: SimComm, c: SZOpsCompressed) -> float:
    """Global mean across ranks, no rank decompressing anything fully."""
    return compressed_stats_allreduce(comm, c)["mean"]


def compressed_stats_allreduce(comm: SimComm, c: SZOpsCompressed) -> dict[str, float]:
    """Global mean/variance/std (population) across ranks from compressed streams."""
    return _global_stats(comm.allreduce(_local_moments(c), _merge))


def traditional_stats_allreduce(
    comm: SimComm, codec: SZOps, c: SZOpsCompressed
) -> dict[str, float]:
    """The baseline path: every rank fully decompresses before reducing.

    Ranks merge ``(n, mean, M2)`` with Chan's pairwise update, so the
    variance matches ``np.var`` of the gathered decompressed data without
    the cancellation of ``s2/n − mean²``.  The remaining gap to
    :func:`compressed_stats_allreduce` (~1e-7 relative for float32) is not
    an error: this path reduces the decompressed output rounded to the
    stream's dtype, the compressed path the exact values ``2·eps·q``.
    """
    data = codec.decompress(c).astype(np.float64).ravel()
    mean = float(data.mean()) if data.size else 0.0
    local = (data.size, mean, float(np.sum((data - mean) ** 2)))
    n, mean, m2 = comm.allreduce(local, _chan_merge)
    var = m2 / n
    return {"mean": mean, "variance": var, "std": math.sqrt(var), "count": n}


def _chan_merge(
    a: tuple[int, float, float], b: tuple[int, float, float]
) -> tuple[int, float, float]:
    """Merge two ``(n, mean, M2)`` partials (Chan, Golub and LeVeque)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    if not n:
        return a
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n
