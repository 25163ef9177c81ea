"""Exact quantized moments on every reduction path.

Every reduction — ``repro.ops``, ``LazyStream`` (with and without a fused
prefix), the serial / threads / processes backends, simulated MPI ranks
and an in-process two-node cluster, over random ``split_container``
chunkings — must be bit-identical to a plain Python-int reference computed
from the decoded bins.  The inputs are adversarial: bins near ``±2^62``,
spreads up to ``2^62``, large value offsets, error bounds at both ends of
``valid_eps``, and constant-block runs.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SZOps, lazy, ops
from repro.cluster import (
    combine_moments,
    finish_reduction,
    local_cluster,
    split_container,
)
from repro.core.errors import OperationError
from repro.core import moments
from repro.core.moments import QuantizedMoments
from repro.core.ops._partial import stored_quantized
from repro.core.quantize import Q_LIMIT
from repro.parallel import compressed_stats_allreduce, get_backend, run_spmd
from repro.runtime import (
    LazyStream,
    parallel_maximum,
    parallel_mean,
    parallel_minimum,
    parallel_std,
    parallel_summary_statistics,
    parallel_variance,
)
from repro.service.protocol import Moments

REDUCTIONS = ("mean", "variance", "std", "minimum", "maximum")
PARALLEL = {
    "mean": parallel_mean,
    "variance": parallel_variance,
    "std": parallel_std,
    "minimum": parallel_minimum,
    "maximum": parallel_maximum,
}
LIMIT = int(Q_LIMIT) - 1
#: Error bounds at both ends of ``valid_eps`` plus ordinary ones.
EPS_EDGES = (5e-324, 1e-300, 1e-4, 0.5, sys.float_info.max / 2)


def reference(q: np.ndarray, eps: float, reduction: str, ddof: int = 0) -> float:
    """The statistic of ``2*eps*q`` from Python-int sums, rounded once."""
    vals = q.reshape(-1).tolist()
    n = len(vals)
    scale = 2.0 * eps
    if reduction == "minimum":
        return scale * min(vals)
    if reduction == "maximum":
        return scale * max(vals)
    s1 = sum(vals)
    if reduction == "mean":
        return scale * (s1 / n)
    num = n * sum(v * v for v in vals) - s1 * s1
    var = scale * scale * (num / (n * (n - ddof))) if num else 0.0
    return var if reduction == "variance" else math.sqrt(var)


def reference_moments(x: np.ndarray, counts: np.ndarray | None = None) -> QuantizedMoments:
    vals = x.tolist()
    weights = [1] * len(vals) if counts is None else counts.tolist()
    return QuantizedMoments(
        sum(w * v for w, v in zip(weights, vals)),
        sum(w * v * v for w, v in zip(weights, vals)),
        min(vals),
        max(vals),
        sum(weights),
    )


@st.composite
def bin_planes(draw, max_size: int = 400):
    """int64 planes inside ``|q| < Q_LIMIT``: any centre, any spread."""
    n = draw(st.integers(1, max_size))
    spread = draw(
        st.sampled_from([0, 1, 5000, 2**31, 3_100_000_000, 2**40, 2**61])
        | st.integers(0, 2**61)
    )
    centre = draw(st.integers(-(LIMIT - spread), LIMIT - spread))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return centre + rng.integers(-spread, spread, size=n, endpoint=True)


@st.composite
def bin_fields(draw):
    """A stream encoded straight from bins, with constant-block runs."""
    block_size = draw(st.sampled_from([8, 16, 64]))
    q = draw(bin_planes(max_size=2500))
    if draw(st.booleans()):
        rng = np.random.default_rng(q.size)
        for start in range(0, q.size, block_size):
            if rng.random() < 0.5:
                q[start : start + block_size] = q[start]
    eps = draw(st.sampled_from(EPS_EDGES))
    c = SZOps(block_size=block_size).encode_quantized(q, q.shape, np.dtype(np.float64), eps)
    return c, q


# ---------------------------------------------------------------------------
# the value type
# ---------------------------------------------------------------------------


class TestKernel:
    @given(x=bin_planes())
    def test_of_values_matches_python_ints(self, x):
        assert QuantizedMoments.of_values(x) == reference_moments(x)

    @given(x=bin_planes(), data=st.data())
    def test_weighted_plane_matches_python_ints(self, x, data):
        counts = np.asarray(
            data.draw(st.lists(st.integers(1, 256), min_size=x.size, max_size=x.size)),
            dtype=np.int64,
        )
        assert QuantizedMoments.of_values(x, counts) == reference_moments(x, counts)

    @given(x=bin_planes(), cuts=st.lists(st.integers(0, 400), max_size=6))
    def test_any_split_combines_to_the_whole(self, x, cuts):
        bounds = sorted({0, x.size, *(c % (x.size + 1) for c in cuts)})
        parts = [QuantizedMoments.of_values(x[a:b]) for a, b in zip(bounds, bounds[1:])]
        whole = QuantizedMoments.of_values(x)
        assert QuantizedMoments.combine(parts) == whole
        assert QuantizedMoments.combine(reversed(parts)) == whole

    @pytest.mark.parametrize(
        "centre, spread, n",
        [
            (3, 1000, 5000),  # direct int64 sums
            (2**61, 5000, 100_000),  # centred: huge offset, small spread
            (0, 10**8, 20_000),  # centred squares overflow: chunked passes
            (0, 2**61, 64),  # wider than sqrt(2^63): Python ints
        ],
        ids=["direct", "centred", "chunked", "python-int"],
    )
    def test_every_kernel_tier_is_exact(self, centre, spread, n):
        rng = np.random.default_rng(n)
        x = centre + rng.integers(-spread, spread, size=n, endpoint=True)
        assert QuantizedMoments.of_values(x) == reference_moments(x)

    def test_large_offset_small_spread_takes_one_int64_pass(self, monkeypatch):
        """Centring keeps a far-off, narrow plane (SCALE-LETKF PRES-like) in int64."""
        peaks = []
        real = moments._exact_sums

        def spy(d, counts, peak, wmax):
            peaks.append(peak)
            return real(d, counts, peak, wmax)

        monkeypatch.setattr(moments, "_exact_sums", spy)
        x = 2_880_000_000 + np.random.default_rng(1).integers(-2500, 2500, size=200_000)
        assert QuantizedMoments.of_values(x) == reference_moments(x)
        assert x.size * peaks[0] ** 2 < 2**63

    def test_empty_is_the_identity(self):
        m = QuantizedMoments.of_values(np.arange(-3, 9, dtype=np.int64))
        empty = QuantizedMoments.of_values(np.zeros(0, dtype=np.int64))
        assert m + empty == m and empty + m == m
        with pytest.raises(ValueError, match="empty"):
            empty.finish("mean", 1e-3)

    def test_zero_spread_variance_is_zero_at_the_largest_bound(self):
        m = QuantizedMoments.of_values(np.full(10, 7, dtype=np.int64))
        assert m.finish("variance", sys.float_info.max / 2) == 0.0

    def test_moments_are_memoised_on_the_decoded_view(self, codec, smooth_1d):
        c = codec.compress(smooth_1d, 1e-3)
        assert stored_quantized(c).moments is stored_quantized(c).moments


# ---------------------------------------------------------------------------
# every reduction path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backends():
    with get_backend("serial", 2) as serial, get_backend(
        "threads", 3
    ) as threads, get_backend("processes", 2) as processes:
        yield {"serial": serial, "threads": threads, "processes": processes}


@pytest.fixture(scope="module")
def cluster():
    with local_cluster(2, replicas=1) as (router, _handles):
        yield router


_NAMES = itertools.count()


def assert_every_path_exact(c, q, n_parts, backends, cluster) -> None:
    eps = c.eps
    want = {r: reference(q, eps, r) for r in REDUCTIONS}
    got: dict[str, dict[str, float]] = {
        "ops": {r: getattr(ops, r)(c) for r in REDUCTIONS},
        "lazy": {r: getattr(lazy(c), r)() for r in REDUCTIONS},
    }
    for name, be in backends.items():
        got[name] = {r: PARALLEL[r](c, be) for r in REDUCTIONS}

    parts = split_container(c, n_parts)
    combined = combine_moments(
        [Moments(LazyStream(p).quantized_moments(), p.eps) for p in parts]
    )
    got["combine"] = {r: finish_reduction(r, combined) for r in REDUCTIONS}

    stats = run_spmd(
        len(parts), lambda comm: compressed_stats_allreduce(comm, parts[comm.rank])
    )[0]
    got["simmpi"] = {r: stats[r] for r in ("mean", "variance", "std")}

    name = f"m{next(_NAMES)}"
    cluster.put(name, c, chunks=n_parts)
    got["cluster"] = {r: cluster.reduce(name, r) for r in REDUCTIONS}

    for path, values in got.items():
        for r, value in values.items():
            assert value == want[r], f"{path} {r}: {value!r} != {want[r]!r}"


@given(field=bin_fields(), n_parts=st.integers(1, 9))
def test_bins_near_the_limit_are_exact_everywhere(backends, cluster, field, n_parts):
    c, q = field
    assert_every_path_exact(c, q, n_parts, backends, cluster)


@given(
    offset=st.floats(-1e6, 1e6),
    eps=st.sampled_from([1e-2, 1e-4, 1e-6]),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    n_parts=st.integers(1, 9),
)
def test_large_offset_fields_are_exact_everywhere(
    backends, cluster, offset, eps, n, seed, n_parts
):
    rng = np.random.default_rng(seed)
    data = offset + np.cumsum(rng.normal(scale=1e-3, size=n))
    codec = SZOps(block_size=16)
    c = codec.compress(data, eps)
    assert_every_path_exact(c, codec.decompress_quantized(c), n_parts, backends, cluster)


@given(field=bin_fields(), shift=st.integers(-(2**40), 2**40))
def test_fused_prefix_moments_match_the_transformed_bins(field, shift):
    c, _q = field
    chain = lazy(c).negate()._push_affine(1, shift)
    try:
        q = chain.quantized()
    except OperationError:
        with pytest.raises(OperationError, match="overflows"):
            chain.mean()
        return
    for r in REDUCTIONS:
        assert getattr(chain, r)() == reference(q, c.eps, r)


@given(field=bin_fields())
def test_block_means_match_one_block_moments(field):
    """Every block_means entry is bit for bit the mean of that block alone."""
    c, q = field
    got = ops.block_means(c)
    for b, (start, length) in enumerate(zip(c.layout.starts(), c.layout.lengths())):
        block = q[start : start + length]
        assert got[b] == QuantizedMoments.of_values(block).finish("mean", c.eps), b


@pytest.mark.parametrize("big", [2**60, 2**56])
def test_block_means_do_not_cancel(big):
    """A block of ±big bins whose float64 sum cancels has mean 0.5.

    ``64·2^60`` overflows int64 and ``64·2^56`` does not: both sum paths.
    """
    q = np.array([big, 1, -big, 1] * 16, dtype=np.int64)
    c = SZOps().encode_quantized(q, q.shape, np.dtype(np.float64), 0.5)
    assert ops.block_means(c)[0] == ops.mean(c) == 0.5


def test_block_means_round_once():
    """A 24-bin block summing to 2^54 + 1: ``float(sum) / 24`` rounds twice."""
    q = np.full(24, (2**54 + 1) // 24, dtype=np.int64)
    q[0] += (2**54 + 1) % 24
    c = SZOps(block_size=24).encode_quantized(q, q.shape, np.dtype(np.float64), 0.5)
    assert float(2**54 + 1) / 24 != (2**54 + 1) / 24
    assert ops.block_means(c)[0] == ops.mean(c) == (2**54 + 1) / 24


def test_motivation_reproduction_is_exact_on_every_path(backends, cluster):
    """2^20 float32 values of 290 ± 0.5 at eps 1e-4: Σq² is above 2^53."""
    data = (290 + np.random.default_rng(0).uniform(-0.5, 0.5, 2**20)).astype(np.float32)
    codec = SZOps()
    c = codec.compress(data, 1e-4)
    q = codec.decompress_quantized(c)
    assert int(np.dot(q.astype(object), q.astype(object))) >= 2**53
    want = reference(q, c.eps, "variance")
    for n_parts in (1, 2, 3, 7, 16):
        parts = split_container(c, n_parts)
        m = combine_moments([Moments(LazyStream(p).quantized_moments(), p.eps) for p in parts])
        assert finish_reduction("variance", m) == want, n_parts
    assert_every_path_exact(c, q, 7, backends, cluster)


# ---------------------------------------------------------------------------
# the one ddof check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        lambda c, ddof: ops.summary_statistics(c, ddof=ddof),
        lambda c, ddof: lazy(c).summary_statistics(ddof=ddof),
        lambda c, ddof: parallel_summary_statistics(c, 2, ddof=ddof),
        lambda c, ddof: ops.variance(c, ddof=ddof),
    ],
    ids=["ops", "lazy", "parallel", "variance"],
)
@pytest.mark.parametrize("ddof", [100, 101])
def test_summary_statistics_rejects_ddof_at_or_above_n(codec, entry, ddof):
    c = codec.compress(np.linspace(0.0, 1.0, 100), 1e-3)
    with pytest.raises(ValueError, match="n - ddof > 0"):
        entry(c, ddof)
