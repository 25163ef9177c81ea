"""Decode-direction equivalence: the fused BF⁻¹ / Lorenzo⁻¹ / QZ⁻¹ path.

``reference_decompress`` keeps the straightforward decode as the oracle:
unpack every stored block's magnitudes with the per-bit reference unpack,
apply signs with ``np.where`` on uint64 (modular negation), scatter the
stored blocks into the full layout, run a per-block ``cumsum`` plus the
outlier, and dequantize through a float64 temporary.  The production path
(narrow group unpack, in-place branch-free signs, one int64 buffer,
outliers folded before an in-place cumsum, one-ufunc dequantize) must
match it byte for byte on every stream below, including doctored ones the
compressor never writes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SZOps
from repro.bitstream import bitpack, unpack_bits
from repro.core.encode import encode_block_sections
from repro.core.format import SZOpsCompressed
from repro.core.ops._partial import decode_stored_blocks

# ---------------------------------------------------------------------------
# the reference decode
# ---------------------------------------------------------------------------


def reference_magnitudes(payload, widths, lens):
    """Per-block magnitudes (uint64) through the per-bit reference unpack."""
    parts, bit = [], 0
    for w, n in zip(widths.tolist(), lens.tolist()):
        parts.append(bitpack.unpack_uints(payload, n, w, bit_offset=bit))
        bit += w * n
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint64)


def reference_apply_signs(signs, mags):
    """Signed deltas: negate in uint64 (modular), reinterpret as int64."""
    return np.where(signs.astype(bool), -mags, mags).view(np.int64)


def reference_quantized(c: SZOpsCompressed) -> np.ndarray:
    lens = c.layout.lengths()
    stored = c.widths > 0
    stored_lens = lens[stored]
    signs = unpack_bits(c.sign_bytes, int(stored_lens.sum()))
    mags = reference_magnitudes(c.payload_bytes, c.widths[stored], stored_lens)
    deltas = np.zeros(c.n_elements, dtype=np.int64)
    deltas[np.repeat(stored, lens)] = reference_apply_signs(signs, mags)
    q = np.empty_like(deltas)
    for b, (start, n) in enumerate(zip(c.layout.starts().tolist(), lens.tolist())):
        q[start : start + n] = np.cumsum(deltas[start : start + n]) + c.outliers[b]
    return q


def reference_decompress(c: SZOpsCompressed) -> np.ndarray:
    q = reference_quantized(c)
    return (2.0 * c.eps * q.astype(np.float64)).astype(c.dtype).reshape(c.shape)


# ---------------------------------------------------------------------------
# streams built straight from a width plane (doctored where asked)
# ---------------------------------------------------------------------------


def build_stream(
    widths,
    block_size,
    tail,
    seed,
    dtype=np.float32,
    eps=1e-3,
    block_start_deltas=False,
    magnitudes=None,
):
    """An ``SZOpsCompressed`` with the given per-block widths.

    Magnitudes are uniform below ``2**w`` (with the block maximum forced to
    ``2**w - 1``) unless ``magnitudes`` maps a block index to its values;
    signs and outliers are random.  The compressor always zeroes each
    block's first delta; ``block_start_deltas=True`` keeps random ones.
    """
    rng = np.random.default_rng(seed)
    widths = np.asarray(widths, dtype=np.uint8)
    n_blocks = widths.size
    n = (n_blocks - 1) * block_size + (tail or block_size)
    lens = np.full(n_blocks, block_size, dtype=np.int64)
    lens[-1] = tail or block_size
    mags = np.zeros(n, dtype=np.uint64)
    signs = rng.integers(0, 2, size=n).astype(np.uint8)
    start = 0
    for b, (w, blen) in enumerate(zip(widths.tolist(), lens.tolist())):
        block = mags[start : start + blen]
        if magnitudes is not None and b in magnitudes:
            block[:] = magnitudes[b]
        elif w:
            block[:] = rng.integers(0, 2**w, size=blen, dtype=np.uint64)
            block[rng.integers(0, blen)] = 2**w - 1
        if not w:
            signs[start : start + blen] = 0
        elif not block_start_deltas:
            block[0] = 0
            signs[start] = 0
        start += blen
    sign_bytes, payload_bytes = encode_block_sections(mags, signs, widths, lens)
    outliers = rng.integers(-(2**62), 2**62, size=n_blocks, dtype=np.int64)
    return SZOpsCompressed(
        shape=(n,),
        dtype=np.dtype(dtype),
        eps=float(eps),
        block_size=block_size,
        widths=widths,
        outliers=outliers,
        sign_bytes=sign_bytes,
        payload_bytes=payload_bytes,
    )


@pytest.fixture(scope="module")
def codecs():
    """Serial (one chunk) and two-chunk codecs, per block size."""
    made = {}

    def get(block_size, n_threads):
        key = (block_size, n_threads)
        if key not in made:
            made[key] = SZOps(block_size=block_size, n_threads=n_threads)
        return made[key]

    yield get
    for codec in made.values():
        codec.close()


def assert_decodes_like_reference(codec, c):
    want_q = reference_quantized(c)
    got_q = codec.decompress_quantized(c)
    assert got_q.dtype == np.int64
    assert got_q.tobytes() == want_q.tobytes()
    with np.errstate(over="ignore"):
        want = reference_decompress(c)
    got = codec.decompress(c)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    blocks = decode_stored_blocks(c)
    stored = c.widths > 0
    lens = c.layout.lengths()
    assert blocks.q.tobytes() == want_q[np.repeat(stored, lens)].tobytes()
    assert np.array_equal(blocks.lens, lens[stored])
    assert np.array_equal(blocks.const_outliers, c.outliers[~stored])


_WIDTHS = st.one_of(
    st.integers(min_value=0, max_value=64),
    # byte multiples and the widths the 64-bit shift window cannot express
    st.sampled_from([0, 8, 16, 24, 32, 40, 48, 56, 64, 58, 59, 60, 61, 62, 63]),
)


@st.composite
def width_planes(draw, widths=_WIDTHS):
    block_size = draw(st.sampled_from([8, 16, 64]))
    n_blocks = draw(st.integers(min_value=1, max_value=10))
    plane = draw(st.lists(widths, min_size=n_blocks, max_size=n_blocks))
    tail = draw(st.integers(min_value=0, max_value=block_size - 1))
    return plane, block_size, tail


class TestDecodeEquivalence:
    @given(
        plane=width_planes(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        block_start_deltas=st.booleans(),
        n_threads=st.sampled_from([1, 2]),
    )
    @settings(deadline=None)
    def test_matches_reference(
        self, codecs, plane, seed, dtype, block_start_deltas, n_threads
    ):
        widths, block_size, tail = plane
        c = build_stream(
            widths, block_size, tail, seed, dtype=dtype,
            block_start_deltas=block_start_deltas,
        )
        assert_decodes_like_reference(codecs(block_size, n_threads), c)

    @given(
        plane=width_planes(widths=st.just(0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_threads=st.sampled_from([1, 2]),
    )
    @settings(deadline=None)
    def test_all_constant(self, codecs, plane, seed, n_threads):
        widths, block_size, tail = plane
        c = build_stream(widths, block_size, tail, seed)
        assert c.sign_bytes.size == 0 and c.payload_bytes.size == 0
        assert_decodes_like_reference(codecs(block_size, n_threads), c)

    @given(
        plane=width_planes(widths=st.integers(min_value=1, max_value=64)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_threads=st.sampled_from([1, 2]),
    )
    @settings(deadline=None)
    def test_all_stored(self, codecs, plane, seed, n_threads):
        widths, block_size, tail = plane
        c = build_stream(widths, block_size, tail, seed, dtype=np.float64)
        assert_decodes_like_reference(codecs(block_size, n_threads), c)

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("tail", [1, 5, 63])
    def test_ragged_tail(self, codecs, n_threads, tail):
        # widths repeat, so the tail shares a width with full-length blocks
        widths = [3, 0, 12, 3, 64, 0, 3, 12, 3]
        c = build_stream(widths, 64, tail, seed=tail)
        assert c.n_elements == 8 * 64 + tail
        assert_decodes_like_reference(codecs(64, n_threads), c)

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_magnitude_two_to_63_with_sign(self, codecs, n_threads, dtype):
        top = np.uint64(2**63)
        mags = np.array([0, top, 1, top, 2**63 - 1, 2**64 - 1, top, 0], dtype=np.uint64)
        c = build_stream(
            [64, 64, 7, 64], 8, 0, seed=1, dtype=dtype,
            block_start_deltas=True, magnitudes={1: mags, 3: mags[::-1]},
        )
        # every sign set: 2**63 must come back as INT64_MIN
        stored_bits = 8 * 4
        c.sign_bytes[: stored_bits // 8] = 0xFF
        q = codecs(8, n_threads).decompress_quantized(c)
        deltas = np.diff(q[8:16], prepend=c.outliers[1])
        assert deltas[1] == np.iinfo(np.int64).min
        assert_decodes_like_reference(codecs(8, n_threads), c)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_nonzero_block_start_delta(self, codecs, n_threads):
        """A doctored first delta is added to the outlier, not overwritten."""
        mags = np.array([5, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint64)
        c = build_stream(
            [3, 3], 8, 0, seed=2, block_start_deltas=True, magnitudes={0: mags},
        )
        c.sign_bytes[:] = 0
        q = codecs(8, n_threads).decompress_quantized(c)
        assert q[0] == c.outliers[0] + 5
        assert q[1] == c.outliers[0] + 6
        assert_decodes_like_reference(codecs(8, n_threads), c)

    @pytest.mark.parametrize("block_size", [8, 64])
    def test_compressed_fields(self, codecs, block_size):
        rng = np.random.default_rng(block_size)
        walk = np.cumsum(rng.normal(size=3 * block_size + 7))
        for data in (walk.astype(np.float32), walk, np.zeros(3 * block_size)):
            c = SZOps(block_size=block_size).compress(data, 1e-2)
            for n_threads in (1, 2):
                assert_decodes_like_reference(codecs(block_size, n_threads), c)


# ---------------------------------------------------------------------------
# the 62 codec-corpus items, byte for byte
# ---------------------------------------------------------------------------

#: sha256 (first 16 hex digits) of ``decompress`` + ``decompress_quantized``
#: + ``decode_stored_blocks(c).q`` bytes for every bundled field at
#: value-range-relative bounds 1e-2 and 1e-4, default codec — recorded
#: from the unfused decode (uint64 magnitudes, ``np.where`` signs, two
#: scatters), which the fused path must reproduce.
CORPUS_DIGESTS = {
    "Hurricane/U/0.01": "b63e3e3eca74456e",
    "Hurricane/U/0.0001": "a31e90e0f70400b4",
    "Hurricane/V/0.01": "6c71caa433661b7d",
    "Hurricane/V/0.0001": "06b65d51b5ac318d",
    "Hurricane/W/0.01": "a4d138460e371cc6",
    "Hurricane/W/0.0001": "5361e5234c6d8f20",
    "Hurricane/TC/0.01": "3c27eceacbe0ee35",
    "Hurricane/TC/0.0001": "0142d4ed7a1becdb",
    "Hurricane/P/0.01": "4daf094c3b9cba63",
    "Hurricane/P/0.0001": "59c124fb1ef096ed",
    "Hurricane/QVAPOR/0.01": "b978bcc48bef629b",
    "Hurricane/QVAPOR/0.0001": "d43bb95c3d7fdfa1",
    "Hurricane/PRECIP/0.01": "1dc994c28ce65289",
    "Hurricane/PRECIP/0.0001": "9cd36eba200ea097",
    "CESM-ATM/CLDHGH/0.01": "6f09dbc02f8f6530",
    "CESM-ATM/CLDHGH/0.0001": "d73f53572e73c094",
    "CESM-ATM/CLDLOW/0.01": "b584a01e14280888",
    "CESM-ATM/CLDLOW/0.0001": "d3df461688b71124",
    "CESM-ATM/FLDSC/0.01": "30253439b5e7515d",
    "CESM-ATM/FLDSC/0.0001": "1683f6e014ef728f",
    "CESM-ATM/FREQSH/0.01": "70e7350d14caa6c6",
    "CESM-ATM/FREQSH/0.0001": "b35231a0449e70f4",
    "CESM-ATM/PHIS/0.01": "fbf6927305cf9ebf",
    "CESM-ATM/PHIS/0.0001": "201c828511220de5",
    "SCALE-LETKF/QC/0.01": "2168c773580e2746",
    "SCALE-LETKF/QC/0.0001": "157f90567f984393",
    "SCALE-LETKF/QR/0.01": "1783758b6b494483",
    "SCALE-LETKF/QR/0.0001": "6f8f80bb048f96fd",
    "SCALE-LETKF/QI/0.01": "30f825e0b1eb7bd8",
    "SCALE-LETKF/QI/0.0001": "6c55859538468b0f",
    "SCALE-LETKF/QS/0.01": "0f2f87b0c593d16b",
    "SCALE-LETKF/QS/0.0001": "16239101508683f8",
    "SCALE-LETKF/QG/0.01": "1141571413445ff2",
    "SCALE-LETKF/QG/0.0001": "87a2a845116e6e75",
    "SCALE-LETKF/QV/0.01": "5f4d5da963a58c47",
    "SCALE-LETKF/QV/0.0001": "ba4a6ffab7c829fc",
    "SCALE-LETKF/RH/0.01": "e3163f2178d69c59",
    "SCALE-LETKF/RH/0.0001": "6a99beecbacc60b9",
    "SCALE-LETKF/T/0.01": "6f2975e7d4808926",
    "SCALE-LETKF/T/0.0001": "49c6ad0df41de64b",
    "SCALE-LETKF/U/0.01": "d608257862ff9396",
    "SCALE-LETKF/U/0.0001": "92d1b8b506cbdeb9",
    "SCALE-LETKF/V/0.01": "122e08ee4d9c49c6",
    "SCALE-LETKF/V/0.0001": "3b607e60b2274bf5",
    "SCALE-LETKF/W/0.01": "f03db994c678ef51",
    "SCALE-LETKF/W/0.0001": "3a0b6667ab2512c4",
    "SCALE-LETKF/PRES/0.01": "b5bf853821c841c5",
    "SCALE-LETKF/PRES/0.0001": "707d1489ca2a1d7c",
    "Miranda/density/0.01": "95aa30a20b36ef04",
    "Miranda/density/0.0001": "e5136291749c6566",
    "Miranda/diffusivity/0.01": "fe2d9adb9fe01bbc",
    "Miranda/diffusivity/0.0001": "f59a6ad83ea168c5",
    "Miranda/pressure/0.01": "681968aa0fc66484",
    "Miranda/pressure/0.0001": "0117dad61dea5f80",
    "Miranda/velocityx/0.01": "19ae70a4711b25ed",
    "Miranda/velocityx/0.0001": "4aaec15341e69c11",
    "Miranda/velocityy/0.01": "766cb0cd075e3f2a",
    "Miranda/velocityy/0.0001": "a7722c1c3f61e9a4",
    "Miranda/velocityz/0.01": "a6f5673ebff17793",
    "Miranda/velocityz/0.0001": "0b1ee855b44fc730",
    "Miranda/viscocity/0.01": "d225950968273901",
    "Miranda/viscocity/0.0001": "545720da60f845d8",
}


def corpus_digests() -> dict[str, str]:
    from repro.datasets import dataset_names, generate_fields

    codec = SZOps()
    out = {}
    for name in dataset_names():
        for field, arr in generate_fields(name).items():
            for rel in (1e-2, 1e-4):
                c = codec.compress(arr, rel, mode="rel")
                h = hashlib.sha256(codec.decompress(c).tobytes())
                h.update(codec.decompress_quantized(c).tobytes())
                h.update(decode_stored_blocks(c).q.tobytes())
                out[f"{name}/{field}/{rel:g}"] = h.hexdigest()[:16]
    return out


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_SDRBENCH_DIR")),
    reason="digests pin the synthesized stand-ins, not real SDRBench files",
)
def test_codec_corpus_pinned():
    got = corpus_digests()
    assert len(got) == 62
    assert got == CORPUS_DIGESTS
