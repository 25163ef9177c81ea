"""One-pass pointwise chains: the steps run per tile inside the encode front.

``rebuild_stored`` runs a chain of ``IntAffine``/``Requantize`` steps in
its exact normal form (:func:`~repro.core.ops._partial.normal_form`): the
guards are decided up front on the view's exact bounds, signs fold into
the multiplies, the body runs on each block-aligned tile of the stored
bins just before the tile is Lorenzo coded, and the trailing shifts land
on the outliers.  The oracle here is the whole-plane order
(:func:`~repro.core.ops._partial.apply_steps`: each step over every bin,
stored and constant, before the next step, each guard scanning what it
produced), re-encoded with no pending steps: the fused stream must equal
its bytes, and a failing chain must raise its error.  The eager chain
(``apply_chain(fused=False)``) is a second oracle wherever its shift
guards agree with the fused ones (see :func:`assert_matches_eager`).

Streams are built straight from bins (``eps = 0.5`` makes a bin one unit),
so overflows sit exactly where a test puts them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, lazy, ops
from repro.core.encode import FRONT_TILE
from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.moments import QuantizedMoments
from repro.core.ops import _partial
from repro.core.ops._partial import rebuild_stored, stored_moments, stored_quantized
from repro.runtime import DecodedBlockCache, IntAffine, LazyStream, Requantize, use_cache

EPS = 0.5


def tile_length(block_size: int) -> int:
    return max(1, FRONT_TILE // block_size) * block_size


def stream_of(q: np.ndarray, block_size: int = 64):
    q = np.asarray(q, dtype=np.int64)
    return SZOps(block_size=block_size).encode_quantized(q, q.shape, np.float64, EPS)


def noisy_bins(n: int, seed: int, constant_every: int = 0, block_size: int = 64):
    """Small random bins; every ``constant_every``-th block made constant."""
    rng = np.random.default_rng(seed)
    q = rng.integers(-3, 4, size=n)
    if constant_every:
        for start in range(0, n, constant_every * block_size):
            q[start : start + block_size] = rng.integers(-50, 50)
    return q


def outcome(fn):
    """``("ok", bytes)`` or ``("error", message)`` of one forcing."""
    try:
        return "ok", fn().to_bytes()
    except OperationError as exc:
        return "error", str(exc)


def whole_plane(chain: LazyStream):
    """The whole-plane reference: transform every bin, then re-encode."""
    return outcome(lambda: rebuild_stored(chain.base, chain._transformed_blocks()))


def moments_outcome(fn):
    """``("ok", moments)`` or ``("error", message)`` of one reduction."""
    try:
        return "ok", fn()
    except OperationError as exc:
        return "error", str(exc)


def is_shift_error(result) -> bool:
    return result[0] == "error" and "shift" in result[1]


def negated_after_last_multiply(chain) -> bool:
    """An odd number of negations follows the chain's last multiply."""
    names = [name for name, _ in chain]
    last = max((i for i, name in enumerate(names) if name == "scalar_multiply"), default=-1)
    return names[last + 1 :].count("negation") % 2 == 1


def assert_matches_eager(c, chain, fused_outcome) -> None:
    """The fused outcome equals the eager chain's, unless a shift guard differs.

    An eager add guards only the outliers it shifts (``|O| + |rho|``) and
    names itself "scalar shift"; a fused shift guards every bin, after
    consecutive shifts folded into one.  Everything else is the same exact
    integer arithmetic behind the same multiply guard, so when neither
    side tripped a shift guard the bytes or the error text must match.
    One exception in the bytes: eager negation flips every stored sign
    bit, zero deltas' too, while a re-encode writes a zero delta's as 0;
    so when a negation follows the last (re-encoding) multiply, the two
    streams are compared by their bins.
    """
    eager = outcome(lambda: ops.apply_chain(c, chain, fused=False))
    if is_shift_error(eager) or is_shift_error(fused_outcome):
        return
    if eager[0] == fused_outcome[0] == "ok" and negated_after_last_multiply(chain):
        bins = [
            SZOps().decompress_quantized(SZOpsCompressed.from_bytes(data))
            for data in (eager[1], fused_outcome[1])
        ]
        assert np.array_equal(*bins)
    else:
        assert eager == fused_outcome


def assert_fused_matches_whole_plane(chain: LazyStream):
    """Fused bytes and fused (tile-by-tile) moments match the whole plane."""
    want = whole_plane(chain)
    assert outcome(chain.materialize) == want
    want_moments = moments_outcome(
        lambda: QuantizedMoments.of(chain._transformed_blocks())
    )
    assert moments_outcome(chain.quantized_moments) == want_moments
    return want


# ---------------------------------------------------------------------------
# error precedence
# ---------------------------------------------------------------------------


def test_multiply_in_a_late_tile_outranks_a_shift_in_tile_zero():
    tile = tile_length(64)
    q = noisy_bins(2 * tile + 37, seed=1)
    q[:tile] += 2**60  # x2 -> 2^61, + 2^61 -> 2^62: the shift trips tile 0
    q[-5] = 2**61 + 5  # x2 -> past 2^62: the multiply trips the ragged tail
    c = stream_of(q)
    chain = lazy(c).scalar_multiply(2.0).scalar_add(2.0**61)
    assert chain.steps == (Requantize(2.0), IntAffine(1, 2**61))
    kind, message = assert_fused_matches_whole_plane(chain)
    assert kind == "error" and message.startswith("scalar multiplication")
    with pytest.raises(OperationError) as eager:
        ops.apply_chain(c, [("scalar_multiply", 2.0), ("scalar_add", 2.0**61)], fused=False)
    assert str(eager.value) == message
    with pytest.raises(OperationError, match="^scalar multiplication"):
        chain.mean()


def test_shift_in_tile_zero_alone_reports_the_shift():
    tile = tile_length(64)
    q = noisy_bins(2 * tile + 37, seed=1)
    q[:tile] += 2**60
    chain = lazy(stream_of(q)).scalar_multiply(2.0).scalar_add(2.0**61)
    kind, message = assert_fused_matches_whole_plane(chain)
    assert kind == "error" and message.startswith("fused scalar shift")


def test_overflowing_constant_block_outlier():
    q = noisy_bins(5 * 64, seed=2)
    q[64:128] = 2**61 + 5  # one constant block, x2 overflows
    chain = lazy(stream_of(q)).scalar_multiply(2.0)
    kind, message = assert_fused_matches_whole_plane(chain)
    assert kind == "error" and message.startswith("scalar multiplication")
    with pytest.raises(OperationError, match="^scalar multiplication"):
        ops.scalar_multiply(stream_of(q), 2.0)


@pytest.mark.parametrize("late", ["stored", "constant"])
def test_constant_plane_and_stored_tiles_keep_the_step_order(late):
    """Step 0 failing on one plane outranks step 1 failing on the other."""
    tile = tile_length(64)
    q = noisy_bins(2 * tile + 64, seed=3)
    if late == "stored":
        q[64:128] = 2**60  # constant block: only the shift overflows it
        q[-3] = 2**61 + 5  # stored tail: the multiply overflows it
    else:
        q[:tile] += 2**60  # stored tile 0: only the shift overflows it
        q[-64:] = 2**61 + 5  # constant last block: the multiply overflows it
    chain = lazy(stream_of(q)).scalar_multiply(2.0).scalar_add(2.0**61)
    kind, message = assert_fused_matches_whole_plane(chain)
    assert kind == "error" and message.startswith("scalar multiplication")


@pytest.mark.parametrize("s_rep", [np.inf, -np.inf, np.nan, 1e308, -1e308])
def test_nan_and_infinite_products_raise(s_rep):
    """``0 * inf`` is NaN, ``2 * 1e308`` is inf: the guard rejects both."""
    q = noisy_bins(FRONT_TILE + 1, seed=4, constant_every=3)
    chain = LazyStream(stream_of(q), (IntAffine(-1, 0), Requantize(s_rep)))
    kind, message = assert_fused_matches_whole_plane(chain)
    assert kind == "error" and message.startswith("scalar multiplication")


# ---------------------------------------------------------------------------
# identity: geometry edges
# ---------------------------------------------------------------------------

CHAINS = [
    [("negation", None), ("scalar_multiply", 0.5), ("scalar_add", 1.0)],
    [("scalar_multiply", -3.0)],
    [("scalar_add", 7.0), ("scalar_multiply", 0.25), ("scalar_multiply", 3.0)],
]


@pytest.mark.parametrize("chain", CHAINS + [[("negation", None), ("scalar_add", 1.0)]])
def test_all_constant_stream(chain):
    """An empty stored plane: only the constant outliers go through the steps."""
    q = np.repeat(np.arange(-20, 20), 64)
    c = stream_of(q)
    assert not (c.widths > 0).any()
    fused = lazy(c)
    for name, scalar in chain:
        fused = fused.apply(name, scalar)
    kind, data = assert_fused_matches_whole_plane(fused)
    assert kind == "ok"
    assert data == ops.apply_chain(c, chain, fused=False).to_bytes()
    assert np.array_equal(fused.quantized(), SZOps().decompress_quantized(fused.materialize()))
    overflow = LazyStream(stream_of(q + 2**61), (Requantize(2.0),))
    assert assert_fused_matches_whole_plane(overflow)[0] == "error"


@pytest.mark.parametrize("block_size", [8, 24, 64])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_tile_edges_and_ragged_tails(block_size, k, d):
    n = k * tile_length(block_size) + d
    q = noisy_bins(n, seed=n, constant_every=4, block_size=block_size)
    c = stream_of(q, block_size)
    for chain in CHAINS:
        fused = lazy(c)
        for name, scalar in chain:
            fused = fused.apply(name, scalar)
        kind, data = assert_fused_matches_whole_plane(fused)
        assert kind == "ok"
        assert data == ops.apply_chain(c, chain, fused=False).to_bytes()
    # the multiply overflows the very last bin, the shift the first tile
    q[: tile_length(block_size)] += 2**60
    q[-1] = 2**61 + 5
    chain = lazy(stream_of(q, block_size)).scalar_multiply(2.0).scalar_add(2.0**61)
    kind, message = assert_fused_matches_whole_plane(chain)
    assert kind == "error" and message.startswith("scalar multiplication")


# ---------------------------------------------------------------------------
# property: fused == whole-plane, bytes or error, for random chains
# ---------------------------------------------------------------------------

ADDS = [1.0, -3.0, 2.0**59, -(2.0**61)]
MULS = [0.5, -2.0, 3.0, 0.0, 2.0**20, -0.5, -1.0, -3.0]

#: Runs of chain steps: single ops, plus a negate right after a multiply
#: and a shift right before one (the pairs the normal form rewrites).
STEP = st.one_of(
    st.just([("negation", None)]),
    st.sampled_from(ADDS).map(lambda s: [("scalar_add", s)]),
    st.sampled_from(MULS).map(lambda s: [("scalar_multiply", s)]),
    st.sampled_from(MULS).map(lambda s: [("scalar_multiply", s), ("negation", None)]),
    st.tuples(st.sampled_from(ADDS), st.sampled_from(MULS)).map(
        lambda p: [("scalar_add", p[0]), ("scalar_multiply", p[1])]
    ),
)


@given(
    block_size=st.sampled_from([8, 24, 64]),
    tiles=st.integers(min_value=0, max_value=2),
    extra=st.integers(min_value=-70, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.sampled_from([0, 2**40, -(2**58), 2**60, 2**61 - 60, -(2**61) + 60]),
    runs=st.lists(STEP, min_size=1, max_size=4),
)
@settings(deadline=None)
def test_fused_matches_whole_plane(block_size, tiles, extra, seed, offset, runs):
    n = max(1, tiles * tile_length(block_size) + extra)
    q = noisy_bins(n, seed, constant_every=3, block_size=block_size)
    q[: n // 2] += offset
    c = stream_of(q, block_size)
    chain = [step for run in runs for step in run]
    fused = lazy(c)
    for name, scalar in chain:
        fused = fused.apply(name, scalar)
    if not any(isinstance(s, Requantize) for s in fused.steps):
        fused = LazyStream(fused.base, fused.steps + (Requantize(1.0),))
        chain.append(("scalar_multiply", 1.0))
    assert_matches_eager(c, chain, assert_fused_matches_whole_plane(fused))


# ---------------------------------------------------------------------------
# a warm chain: one multiply per bin, bounds scanned once per view
# ---------------------------------------------------------------------------

ANALYSIS_CHAIN = [("negation", None), ("scalar_multiply", 0.5), ("scalar_add", 1.0)]


def test_warm_chain_hands_the_front_one_multiply(monkeypatch):
    """``negate → ×0.5 → +1`` maps each tile with one signed multiply.

    The sign folds into the factor and the shift lands on the outliers;
    the view's bounds are scanned by the first forcing only, and a view
    whose moments are known is never scanned.
    """
    maps, scans = [], []
    encode_bins, scan_bounds = _partial.encode_bins, _partial._scan_bounds

    def spy_encode(q, block_size, tile_map=None):
        maps.append(tile_map)
        return encode_bins(q, block_size, tile_map)

    def spy_scan(*planes):
        scans.append(len(planes))
        return scan_bounds(*planes)

    q = noisy_bins(2 * tile_length(64) + 37, seed=5, constant_every=3)
    c, other = stream_of(q), stream_of(q[::-1].copy())
    want = ops.apply_chain(c, ANALYSIS_CHAIN, fused=False).to_bytes()
    with use_cache(DecodedBlockCache(max_bytes=1 << 30)):
        stored_quantized(c)
        stored_moments(other)  # the view's moments: its bounds come free
        monkeypatch.setattr(_partial, "encode_bins", spy_encode)
        monkeypatch.setattr(_partial, "_scan_bounds", spy_scan)
        chain = lazy(c)
        for name, scalar in ANALYSIS_CHAIN:
            chain = chain.apply(name, scalar)
        assert chain.steps[0] == IntAffine(-1, 0)  # recorded as called
        first, second = chain.to_bytes(), chain.to_bytes()
        assert len(scans) == 1
        lazy(other).negate().scalar_multiply(0.5).scalar_add(1.0).to_bytes()
        assert len(scans) == 1
    assert first == second == want
    assert len(maps) == 3
    for tile_map in maps:
        (step,) = tile_map.steps
        assert isinstance(step, Requantize) and step.s_rep < 0


# ---------------------------------------------------------------------------
# reductions of a multiply chain: tile-sized memory, whatever the length
# ---------------------------------------------------------------------------


def _peak_bytes(fn) -> int:
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn()
    return tracemalloc.get_traced_memory()[1] - base


def test_multiply_chain_moments_memory_does_not_grow_with_the_stream():
    """Moments of ``x * s`` never build the transformed plane in full."""
    peaks, whole = [], 0
    with use_cache(DecodedBlockCache(max_bytes=1 << 30)):
        for n in (1_600_000, 3_200_000):
            c = stream_of(noisy_bins(n, seed=n, constant_every=16))
            stored_quantized(c)  # bins cached: only the reduction is measured
            chain = lazy(c).scalar_multiply(2.0)
            tracemalloc.start()
            try:
                peaks.append(_peak_bytes(chain.mean))
                if not whole:
                    whole = _peak_bytes(
                        lambda: QuantizedMoments.of(chain._transformed_blocks())
                    )
            finally:
                tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[0] <= whole / 8
