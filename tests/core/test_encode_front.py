"""Encode-direction equivalence: the tiled encode front.

``reference_front`` keeps the whole-array encode front as the oracle:
``quantize`` over all of the input, ``lorenzo_forward`` over all of the
bins, ``deltas < 0`` / ``np.abs`` for signs and magnitudes, the block
widths from a ``np.maximum.reduceat`` and Python's ``int.bit_length``, and
the uint32 narrowing when every width fits.  The production front (one
pass of block-aligned, cache-sized tiles) must give byte-identical
containers from every encoder that runs it: ``compress``,
``encode_quantized``, ``scalar_multiply``, lazy ``materialize``,
multivariate ``add``/``subtract`` and the SZp baseline — checked by
swapping the reference in at each encoder's seam and comparing bytes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps, lazy, ops
from repro.baselines.szp import SZp
from repro.core import compressor
from repro.core.blocks import BlockLayout
from repro.core.encode import FRONT_TILE, EncodeFront, encode_bins
from repro.core.lorenzo import lorenzo_forward
from repro.core.ops import _partial
from repro.core.quantize import quantize

# ---------------------------------------------------------------------------
# the reference front
# ---------------------------------------------------------------------------


def reference_front(q: np.ndarray, block_size: int, tile_map=None) -> EncodeFront:
    """The whole-array encode front over bins ``q``.

    A re-encode's pending steps (``tile_map``) run over all of ``q`` at
    once, before the front, where the production front runs them per tile.
    """
    if tile_map is not None:
        q = tile_map(q)
    layout = BlockLayout(q.size, block_size)
    deltas, outliers = lorenzo_forward(q, layout)
    signs = (deltas < 0).view(np.uint8)
    mags_i = np.abs(deltas).view(np.uint64)
    maxima = np.maximum.reduceat(mags_i, layout.starts())
    widths = np.array([int(m).bit_length() for m in maxima], dtype=np.uint8)
    mags = mags_i.astype(np.uint32) if int(widths.max(initial=0)) <= 32 else mags_i
    return EncodeFront(signs, mags, widths, outliers)


def reference_values(flat, eps, block_size, timings=None) -> EncodeFront:
    return reference_front(quantize(flat, eps), block_size)


def tile_length(block_size: int) -> int:
    return max(1, FRONT_TILE // block_size) * block_size


def field(n: int, seed: int, dtype=np.float32) -> np.ndarray:
    """A random walk with a constant stretch (constant blocks) and a spike."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(scale=0.02, size=n))
    x[n // 3 : n // 3 + min(n // 5, 700)] = 1.5
    x[rng.integers(0, n)] += 40.0
    return x.astype(dtype)


def encodings(x: np.ndarray, eps: float, block_size: int, n_threads: int = 1):
    """The bytes of every encoder that runs the front, on ``x``."""
    with SZOps(block_size=block_size, n_threads=n_threads, backend="threads") as codec:
        c = codec.compress(x, eps)
        other = codec.compress(np.flip(x).copy(), eps)
        q = quantize(np.ascontiguousarray(x).reshape(-1), eps)
        quantized = codec.encode_quantized(q, x.shape, x.dtype, eps)
    out = {
        "compress": c.to_bytes(),
        "encode_quantized": quantized.to_bytes(),
        "scalar_multiply": ops.scalar_multiply(c, -0.75).to_bytes(),
        "lazy": lazy(c).negate().scalar_multiply(3.0).scalar_add(1.0).materialize().to_bytes(),
        "add": ops.add(c, other).to_bytes(),
        "subtract": ops.subtract(c, other).to_bytes(),
    }
    out["szp"] = SZp(block_size=block_size).compress(x, eps).payload
    return out


def reference_encodings(x: np.ndarray, eps: float, block_size: int, n_threads: int = 1):
    """:func:`encodings` with the reference front swapped in at every seam."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compressor, "encode_values", reference_values)
        mp.setattr("repro.baselines.szp.encode_values", reference_values)
        # scalar_multiply, lazy materialize and multivariate add/subtract
        # re-encode through _partial
        mp.setattr(_partial, "encode_bins", reference_front)
        return encodings(x, eps, block_size, n_threads)


def assert_matches_reference(x, eps, block_size, n_threads=1):
    got = encodings(x, eps, block_size, n_threads)
    want = reference_encodings(x, eps, block_size, n_threads)
    assert got.keys() == want.keys()
    for name in got:
        assert got[name] == want[name], name


# ---------------------------------------------------------------------------
# tile boundaries, block sizes, dtypes, threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block_size", [8, 24, 64, 256])
@pytest.mark.parametrize("k", [1, 2])
def test_tile_boundaries(block_size, k):
    tile = tile_length(block_size)
    x = field(k * tile + block_size, seed=k * block_size)
    for n in sorted({k * tile + d for d in (0, 1, -1, block_size - 1, 1 - block_size)}):
        assert_matches_reference(x[:n], 1e-3, block_size)


@given(
    block_size=st.sampled_from([8, 16, 24, 64, 136, 256]),
    extra=st.integers(min_value=-300, max_value=300),
    tiles=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    eps=st.sampled_from([1e-1, 1e-3, 1e-6]),
    n_threads=st.sampled_from([1, 2]),
)
@settings(deadline=None)
def test_matches_reference(block_size, extra, tiles, seed, dtype, eps, n_threads):
    n = max(1, tiles * tile_length(block_size) + extra)
    assert_matches_reference(field(n, seed, dtype), eps, block_size, n_threads)


@pytest.mark.parametrize("view", ["strided", "transposed", "fortran"])
def test_non_contiguous_input(view):
    base = field(3 * FRONT_TILE, seed=7, dtype=np.float64)
    x = {
        "strided": base[::3],
        "transposed": base.reshape(96, -1).T,
        "fortran": np.asfortranarray(base.reshape(96, -1)),
    }[view]
    assert_matches_reference(x, 1e-4, 64)


def test_wide_block_in_a_middle_tile_widens_the_magnitude_plane():
    B = 64
    tile = tile_length(B)
    x = field(3 * tile, seed=3, dtype=np.float64)
    x[tile + 5 * B + 7] += 1e8  # a bin jump of 5e10 > 2**32 in tile 1
    q = quantize(x, 1e-3)
    front = encode_bins(q, B)
    ref = reference_front(q, B)
    assert front.mags.dtype == np.uint64
    assert int(front.widths.max()) > 32
    for got, want in zip(front, ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert_matches_reference(x, 1e-3, B)


def test_narrow_planes_stay_uint32():
    q = quantize(field(2 * FRONT_TILE + 3, seed=5), 1e-3)
    front = encode_bins(q, 64)
    assert front.mags.dtype == np.uint32
    for got, want in zip(front, reference_front(q, 64)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# errors: those of one quantize call over the whole input
# ---------------------------------------------------------------------------


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_in_a_late_tile_outranks_an_early_overflow(bad):
    x = np.linspace(-1.0, 1.0, 3 * FRONT_TILE)
    x[10] = 1e9  # bin 5e18 >= 2**62 at eps 1e-10: the first tile overflows
    x[-5] = bad
    want = _error(quantize, x, 1e-10)
    assert "non-finite" in want[1]
    assert _error(SZOps().compress, x, 1e-10) == want
    assert _error(SZp().compress, x, 1e-10) == want


def test_overflow_alone_reports_overflow():
    x = np.linspace(-1.0, 1.0, 3 * FRONT_TILE)
    x[-10] = 1e9
    want = _error(quantize, x, 1e-10)
    assert "overflows" in want[1]
    assert _error(SZOps().compress, x, 1e-10) == want
    assert _error(SZp().compress, x, 1e-10) == want


def test_timings_still_split_by_stage():
    timings: dict[str, float] = {}
    SZOps().compress(field(3 * FRONT_TILE, seed=1), 1e-3, timings=timings)
    assert set(timings) == {"quantize_s", "lorenzo_s", "encode_s"}
    assert all(t > 0 for t in timings.values())


# ---------------------------------------------------------------------------
# the 62 codec-corpus items, byte for byte
# ---------------------------------------------------------------------------

#: sha256 (first 16 hex digits) of ``compress(...).to_bytes()`` followed by
#: ``scalar_multiply(c, 0.5).to_bytes()`` for every bundled field at
#: value-range-relative bounds 1e-2 and 1e-4, default codec — recorded
#: from the whole-array encode front, which the tiled one must reproduce.
CORPUS_DIGESTS = {
    "Hurricane/U/0.01": "2b841277a2cbb23b",
    "Hurricane/U/0.0001": "0efbff20210ff5eb",
    "Hurricane/V/0.01": "c7fbb190a30caca8",
    "Hurricane/V/0.0001": "c97de61c79ba37a2",
    "Hurricane/W/0.01": "2b680565416221be",
    "Hurricane/W/0.0001": "8a23bf7c2699f606",
    "Hurricane/TC/0.01": "c585640c3c0b391a",
    "Hurricane/TC/0.0001": "64c6b6359b736d81",
    "Hurricane/P/0.01": "071d0516c60dff49",
    "Hurricane/P/0.0001": "d726b0923da2f30e",
    "Hurricane/QVAPOR/0.01": "8add619fdf336739",
    "Hurricane/QVAPOR/0.0001": "8449f61538bb66d9",
    "Hurricane/PRECIP/0.01": "b19551d60d1eddee",
    "Hurricane/PRECIP/0.0001": "6bf838b636acf6b8",
    "CESM-ATM/CLDHGH/0.01": "91edc49a82098acf",
    "CESM-ATM/CLDHGH/0.0001": "92cd9b0ea111bb2c",
    "CESM-ATM/CLDLOW/0.01": "02fe22b1a00dee50",
    "CESM-ATM/CLDLOW/0.0001": "e2eb8c965cfc6719",
    "CESM-ATM/FLDSC/0.01": "aaf5bc8a6e770a6f",
    "CESM-ATM/FLDSC/0.0001": "1134814d6451010c",
    "CESM-ATM/FREQSH/0.01": "36dac50462a438ff",
    "CESM-ATM/FREQSH/0.0001": "2a2c5bbe681a90e1",
    "CESM-ATM/PHIS/0.01": "154e1feaaace9c30",
    "CESM-ATM/PHIS/0.0001": "1ae246721c0efecc",
    "SCALE-LETKF/QC/0.01": "b05bdb66b61e83ca",
    "SCALE-LETKF/QC/0.0001": "3555f836aaa14356",
    "SCALE-LETKF/QR/0.01": "54fea422f9db820e",
    "SCALE-LETKF/QR/0.0001": "d2cc4b9f4a1ea837",
    "SCALE-LETKF/QI/0.01": "f035364b2d0ae7a6",
    "SCALE-LETKF/QI/0.0001": "139155c3b3ecbfbc",
    "SCALE-LETKF/QS/0.01": "948fe21f01500dcc",
    "SCALE-LETKF/QS/0.0001": "98ac255ab9747f9e",
    "SCALE-LETKF/QG/0.01": "e42b11f4336cd015",
    "SCALE-LETKF/QG/0.0001": "3087c891e738b979",
    "SCALE-LETKF/QV/0.01": "047de8194f15edda",
    "SCALE-LETKF/QV/0.0001": "90f1f57a8f36ecd7",
    "SCALE-LETKF/RH/0.01": "5dbde9369b519017",
    "SCALE-LETKF/RH/0.0001": "76184f9023fe9475",
    "SCALE-LETKF/T/0.01": "576803e8b6df905e",
    "SCALE-LETKF/T/0.0001": "32882cdd7e689287",
    "SCALE-LETKF/U/0.01": "37bd092cd3f3175e",
    "SCALE-LETKF/U/0.0001": "8117b7cfc43f2f5b",
    "SCALE-LETKF/V/0.01": "970cc8d7243482f1",
    "SCALE-LETKF/V/0.0001": "3a597a0bd07238c3",
    "SCALE-LETKF/W/0.01": "0ed98bd3073c2a08",
    "SCALE-LETKF/W/0.0001": "efa2b93855d0bb28",
    "SCALE-LETKF/PRES/0.01": "4df5fbb7d723204e",
    "SCALE-LETKF/PRES/0.0001": "92c0e55fc87062b6",
    "Miranda/density/0.01": "cf9b0d7b85f2e10f",
    "Miranda/density/0.0001": "614376f0d29b09f8",
    "Miranda/diffusivity/0.01": "e4500d9a7ce17ba2",
    "Miranda/diffusivity/0.0001": "d192b1c434539b99",
    "Miranda/pressure/0.01": "13d64f864b82d719",
    "Miranda/pressure/0.0001": "ca04327bf0d86c5f",
    "Miranda/velocityx/0.01": "c1551bbfd8d3b3c5",
    "Miranda/velocityx/0.0001": "4338b2a18bc3a645",
    "Miranda/velocityy/0.01": "56914ca4de8b3ae0",
    "Miranda/velocityy/0.0001": "4658a8ef06ebfbd5",
    "Miranda/velocityz/0.01": "bf1a76860ee21640",
    "Miranda/velocityz/0.0001": "99a98f57b260313f",
    "Miranda/viscocity/0.01": "2e954bd092b60a8b",
    "Miranda/viscocity/0.0001": "9f45fb67132dc1c8",
}


def corpus_digests() -> dict[str, str]:
    from repro.datasets import dataset_names, generate_fields

    codec = SZOps()
    out = {}
    for name in dataset_names():
        for field_name, arr in generate_fields(name).items():
            for rel in (1e-2, 1e-4):
                c = codec.compress(arr, rel, mode="rel")
                h = hashlib.sha256(c.to_bytes())
                h.update(ops.scalar_multiply(c, 0.5).to_bytes())
                out[f"{name}/{field_name}/{rel:g}"] = h.hexdigest()[:16]
    return out


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_SDRBENCH_DIR")),
    reason="digests pin the synthesized stand-ins, not real SDRBench files",
)
def test_codec_corpus_pinned():
    got = corpus_digests()
    assert len(got) == 62
    assert got == CORPUS_DIGESTS
