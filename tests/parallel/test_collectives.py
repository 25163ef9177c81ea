"""Compressed collective reduction tests (the paper's MPI use case)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SZOps
from repro.core.ops._partial import stored_quantized
from repro.parallel import (
    compressed_mean_allreduce,
    compressed_stats_allreduce,
    run_spmd,
    traditional_stats_allreduce,
)


def local_moments(c):
    """(sum, sum of squares, count) in value units, from the exact moments."""
    m = stored_quantized(c).moments
    scale = 2.0 * c.eps
    return scale * m.s1, scale * scale * m.s2, m.n


@pytest.fixture
def rank_data(rng):
    return [
        (np.cumsum(rng.normal(size=5000)) * 0.01 + r).astype(np.float32)
        for r in range(4)
    ]


class TestLocalMoments:
    def test_moments_match_decompressed(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-4)
        x = codec.decompress(c).astype(np.float64)
        s, s2, n = local_moments(c)
        assert n == x.size
        assert s == pytest.approx(float(x.sum()), rel=1e-6)
        assert s2 == pytest.approx(float(np.dot(x, x)), rel=1e-6)

    def test_constant_blocks_closed_form(self, codec, plateau_field):
        c = codec.compress(plateau_field, 1e-4)
        x = codec.decompress(c).astype(np.float64).reshape(-1)
        s, s2, n = local_moments(c)
        assert s == pytest.approx(float(x.sum()), rel=1e-6, abs=1e-9)
        assert s2 == pytest.approx(float(np.dot(x, x)), rel=1e-6)


class TestAllreduce:
    def test_compressed_mean_matches_global(self, rank_data):
        codec = SZOps()
        blobs = [codec.compress(d, 1e-4) for d in rank_data]
        global_mean = float(
            np.mean(np.concatenate([codec.decompress(b).astype(np.float64) for b in blobs]))
        )

        def prog(comm):
            return compressed_mean_allreduce(comm, blobs[comm.rank])

        results = run_spmd(4, prog)
        assert all(r == pytest.approx(global_mean, rel=1e-9) for r in results)

    def test_compressed_matches_traditional(self, rank_data):
        codec = SZOps()
        blobs = [codec.compress(d, 1e-4) for d in rank_data]

        def compressed(comm):
            return compressed_stats_allreduce(comm, blobs[comm.rank])

        def traditional(comm):
            return traditional_stats_allreduce(comm, codec, blobs[comm.rank])

        c_stats = run_spmd(4, compressed)[0]
        t_stats = run_spmd(4, traditional)[0]
        assert c_stats["count"] == t_stats["count"]
        assert c_stats["mean"] == pytest.approx(t_stats["mean"], rel=1e-6)
        assert c_stats["variance"] == pytest.approx(t_stats["variance"], rel=1e-4)
        assert c_stats["std"] == pytest.approx(t_stats["std"], rel=1e-4)

    def test_traditional_variance_does_not_cancel(self):
        """The baseline's merged (n, mean, M2) matches np.var of the gathered data.

        ``s2/n − mean²`` in float64 was off by ~7e-9 relative on this field.
        """
        data = (290 + np.random.default_rng(0).uniform(-0.5, 0.5, 2**20)).astype(
            np.float32
        )
        codec = SZOps()
        blobs = [codec.compress(part, 1e-4) for part in np.array_split(data, 4)]
        gathered = np.concatenate(
            [codec.decompress(b).astype(np.float64) for b in blobs]
        )

        def traditional(comm):
            return traditional_stats_allreduce(comm, codec, blobs[comm.rank])

        stats = run_spmd(4, traditional)[0]
        assert stats["count"] == gathered.size
        assert stats["mean"] == pytest.approx(float(np.mean(gathered)), rel=1e-12)
        assert stats["variance"] == pytest.approx(float(np.var(gathered)), rel=1e-12)

    def test_mixed_error_bounds_across_ranks(self, rank_data):
        """Moments are in value units, so ranks may use different bounds."""
        codec = SZOps()
        epss = [1e-3, 1e-4, 1e-5, 1e-4]
        blobs = [codec.compress(d, e) for d, e in zip(rank_data, epss)]
        raw_mean = float(
            np.mean(np.concatenate([codec.decompress(b).astype(np.float64) for b in blobs]))
        )

        def prog(comm):
            return compressed_mean_allreduce(comm, blobs[comm.rank])

        assert run_spmd(4, prog)[0] == pytest.approx(raw_mean, rel=1e-9)
