"""Differential suite for the stream verifiers' section-size arithmetic.

The verifiers size the sign and payload sections from whole-plane counts
(:meth:`repro.core.blocks.BlockLayout.section_bits`).  Two references keep
that arithmetic honest:

* ``reference_section_bits`` is the per-block Python-int walk the
  verifiers used before: every block's length and width as an exact int.
  Hypothesis checks the whole-plane counts against it over width planes
  0-255, block sizes up to 2**32 - 1, ragged tails and all eight SZp flag
  combinations, directly and through synthetic streams.
* A corpus of a few hundred seeded byte mutations (flips, truncations,
  size-field edits) of real float32/float64 SZOps and SZp streams pins
  every finding (rule, offset, message, severity, hint) by a digest
  recorded from the per-block verifier.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SZOps
from repro.analysis import verify_szops_bytes, verify_szp_payload
from repro.analysis.findings import Finding, Severity
from repro.baselines.szp import SZp
from repro.core.blocks import BlockLayout
from repro.core.errors import FormatError
from repro.core.format import SZOpsCompressed

SZP_FLAGS = list(product((False, True), repeat=3))  # lengths, full signs, align


def reference_section_bits(
    widths: np.ndarray,
    n_elements: int,
    block_size: int,
    *,
    full_signs: bool = False,
    word_align: bool = False,
) -> tuple[int, int, list[int]]:
    """Sign bits, payload bits and per-block payload bits, block by block.

    SZOps is ``full_signs=False, word_align=False``.  Every quantity is a
    Python int, so the walk is exact for any plane and block size.
    """
    lens = BlockLayout(n_elements, block_size).lengths().astype(object)
    block_bits = [int(w) * int(l) for w, l in zip(widths.tolist(), lens)]
    if word_align:
        block_bits = [-(-b // 32) * 32 for b in block_bits]
    if full_signs:
        sign_bits = n_elements
    else:
        sign_bits = int(sum(int(l) for l in lens[widths > 0]))
    payload_bits = sum(b for b, w in zip(block_bits, widths.tolist()) if w > 0)
    return sign_bits, payload_bits, block_bits


# ------------------------------------------------------- whole-plane counts


@st.composite
def planes(draw, max_width: int = 255, multiple_of: int = 1):
    """A (widths, n_elements, block_size) triple, ragged tail or not."""
    block_size = draw(
        st.sampled_from([1, 8, 64, 2**32 - 1]) | st.integers(1, 2**32 - 1)
    )
    block_size -= block_size % multiple_of
    block_size = max(block_size, multiple_of)
    n_blocks = draw(st.integers(1, 3000))
    tail = draw(st.sampled_from([0, 1, block_size - 1]) | st.integers(0, block_size - 1))
    n_elements = (n_blocks - 1) * block_size + (tail or block_size)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    widths = rng.integers(0, max_width + 1, size=n_blocks).astype(np.uint8)
    # Runs of constant blocks and a constant or stored tail block.
    widths[rng.random(n_blocks) < draw(st.floats(0, 1))] = 0
    widths[-1] = draw(st.sampled_from([0, max_width, int(widths[-1])]))
    return widths, n_elements, block_size


@given(planes())
def test_section_bits_match_reference(plane) -> None:
    widths, n_elements, block_size = plane
    sign, payload, _ = reference_section_bits(widths, n_elements, block_size)
    assert BlockLayout(n_elements, block_size).section_bits(widths) == (sign, payload)


@given(planes(max_width=32, multiple_of=8))
def test_word_aligned_section_bits_match_reference(plane) -> None:
    widths, n_elements, block_size = plane
    sign, payload, _ = reference_section_bits(
        widths, n_elements, block_size, word_align=True
    )
    layout = BlockLayout(n_elements, block_size)
    assert layout.section_bits(widths, align_bits=32) == (sign, payload)


def test_section_bits_exact_past_int64() -> None:
    # 2**26 blocks of width 64 at block size 2**32 - 1: the payload holds
    # about 2**64 bits, where an int64 sum wraps.  A broadcast view stands
    # in for the plane, so no 64 MiB array is built.
    n_blocks = 2**26
    block_size = 2**32 - 1
    widths = np.broadcast_to(np.uint8(64), (n_blocks,))
    layout = BlockLayout(n_blocks * block_size - 5, block_size)
    sign, payload = layout.section_bits(widths)
    assert sign == n_blocks * block_size - 5
    assert payload == 64 * (n_blocks * block_size - 5)
    assert payload >= 2**63


# ---------------------------------------------------- through the verifiers


def _szops_stream(widths: np.ndarray, n_elements: int, block_size: int,
                  n_sign: int, n_payload: int) -> bytes:
    """A float64 SZOps stream with the given plane and declared sizes."""
    header = b"SZOPS" + bytes([1]) + struct.pack("<I", 3) + b"<f8"
    header += bytes([1]) + struct.pack("<QdI", n_elements, 1e-3, block_size)
    outliers = struct.pack("<I", 3) + b"<i2" + struct.pack("<Q", widths.size)
    outliers += bytes(2 * widths.size)
    return (
        header + widths.tobytes() + outliers
        + struct.pack("<Q", n_sign) + bytes(n_sign)
        + struct.pack("<Q", n_payload) + bytes(n_payload)
    )


def _szp_payload(widths: np.ndarray, block_size: int, flags: tuple[bool, ...],
                 byte_lens: list[int], n_sign: int, n_payload: int) -> bytes:
    store_lengths, full_signs, word_align = flags
    bits = store_lengths | full_signs << 1 | word_align << 2
    out = struct.pack("<IBd", block_size, bits, 1e-3) + widths.tobytes()
    if store_lengths:
        out += np.asarray(byte_lens, dtype="<u2").tobytes()
    out += bytes(4 * widths.size)
    return (
        out + struct.pack("<Q", n_sign) + bytes(n_sign)
        + struct.pack("<Q", n_payload) + bytes(n_payload)
    )


def _section_verdicts(findings: list[Finding]) -> list[tuple[str, str, str]]:
    """Every finding but the width-cap ones, as (rule, severity, message)."""
    return [(f.rule, f.severity.value, f.message) for f in findings
            if f.rule != "VS005"]


def _expected(n_sign: int, sign_bytes: int, n_payload: int, payload_bytes: int):
    out = []
    for name, declared, implied in (
        ("sign", n_sign, sign_bytes),
        ("payload", n_payload, payload_bytes),
    ):
        if declared < implied:
            out.append(("VS006", "error", f"{name} section declares {declared} "
                        f"byte(s) but the width plane implies at least {implied}"))
        elif declared > implied + 8:
            out.append(("VS006", "warning", f"{name} section declares {declared} "
                        f"byte(s), {declared - implied} more than the width "
                        "plane implies"))
    return out


@st.composite
def small_planes(draw, max_width: int, multiple_of: int):
    block_size = multiple_of * draw(st.integers(1, 64 // multiple_of))
    n_blocks = draw(st.integers(1, 200))
    tail = draw(st.integers(0, block_size - 1))
    n_elements = (n_blocks - 1) * block_size + (tail or block_size)
    widths = np.array(
        draw(st.lists(st.integers(0, max_width), min_size=n_blocks,
                      max_size=n_blocks)),
        dtype=np.uint8,
    )
    return widths, n_elements, block_size


@given(small_planes(max_width=255, multiple_of=1), st.sampled_from([-1, 0, 9]),
       st.sampled_from([-1, 0, 9]))
def test_szops_verifier_sizes_match_reference(plane, d_sign, d_payload) -> None:
    widths, n_elements, block_size = plane
    sign, payload, _ = reference_section_bits(widths, n_elements, block_size)
    sign_bytes, payload_bytes = (sign + 7) // 8, (payload + 7) // 8
    n_sign = max(sign_bytes + d_sign, 0)
    n_payload = max(payload_bytes + d_payload, 0)
    data = _szops_stream(widths, n_elements, block_size, n_sign, n_payload)
    assert _section_verdicts(verify_szops_bytes(data)) == _expected(
        n_sign, sign_bytes, n_payload, payload_bytes
    )


@pytest.mark.parametrize("flags", SZP_FLAGS)
@given(plane=small_planes(max_width=32, multiple_of=8),
       d_sign=st.sampled_from([-1, 0, 9]), d_payload=st.sampled_from([-1, 0, 9]),
       bump=st.booleans())
def test_szp_verifier_sizes_match_reference(flags, plane, d_sign, d_payload,
                                            bump) -> None:
    store_lengths, full_signs, word_align = flags
    widths, n_elements, block_size = plane
    sign, payload, block_bits = reference_section_bits(
        widths, n_elements, block_size, full_signs=full_signs, word_align=word_align
    )
    sign_bytes, payload_bytes = (sign + 7) // 8, (payload + 7) // 8
    n_sign = max(sign_bytes + d_sign, 0)
    n_payload = max(payload_bytes + d_payload, 0)
    byte_lens = [-(-b // 8) for b in block_bits]
    if bump:  # one length-plane entry disagrees with its width
        byte_lens[len(byte_lens) // 2] += 1
    data = _szp_payload(widths, block_size, flags, byte_lens, n_sign, n_payload)
    findings = verify_szp_payload(data, n_elements)
    if store_lengths and bump:
        i = len(byte_lens) // 2
        assert _section_verdicts(findings) == [(
            "VS006", "error",
            f"length plane says block {i} spans {byte_lens[i]} byte(s) but its "
            f"width implies {byte_lens[i] - 1}",
        )]
        assert findings[0].offset == 13 + widths.size + 2 * i
    else:
        assert _section_verdicts(findings) == _expected(
            n_sign, sign_bytes, n_payload, payload_bytes
        )


# ----------------------------------------------------- pinned mutation corpus

#: sha256 of the findings over ``mutation_corpus()``, recorded from the
#: per-block verifier and re-recorded when the SZOps width cap became
#: 64 bits for every dtype (one float32 case's VS005 findings moved), and
#: again when the VS005 text stopped saying "for this dtype" (the SZp
#: verifier shares it) and the implausible-shape VS004 moved to the ndim
#: field's offset.  A change here means a verdict, offset or message moved
#: for some corrupt stream.
CORPUS_DIGEST = "6d5cf9bfda300d942af69555d5224d947fc6ad1664eb495786eac74aa90e7d81"


def _signal(n: int, seed: int) -> np.ndarray:
    data = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    data[n // 3 : n // 3 + 200] = data[n // 3]  # constant blocks
    return data


def _szops_fields(buf: bytes) -> dict[str, tuple[int, int]]:
    """Offset and width of each editable header/size field of a stream."""
    ndim = buf[13]
    bs_at = 14 + 8 * ndim + 8
    n_elements = int(np.prod(struct.unpack_from(f"<{ndim}Q", buf, 14)))
    (block_size,) = struct.unpack_from("<I", buf, bs_at)
    n_blocks = -(-n_elements // block_size)
    out_at = bs_at + 4 + n_blocks
    (dlen,) = struct.unpack_from("<I", buf, out_at)
    count_at = out_at + 4 + dlen
    itemsize = np.dtype(buf[out_at + 4 : count_at].decode()).itemsize
    sign_at = count_at + 8 + n_blocks * itemsize
    (n_sign,) = struct.unpack_from("<Q", buf, sign_at)
    fields = {f"dim{i}": (14 + 8 * i, 8) for i in range(ndim)}
    fields.update(
        block_size=(bs_at, 4),
        outlier_count=(count_at, 8),
        sign=(sign_at, 8),
        payload=(sign_at + 8 + n_sign, 8),
    )
    return fields


def _szp_fields(buf: bytes, n_elements: int) -> dict[str, tuple[int, int]]:
    block_size, flags = struct.unpack_from("<IB", buf, 0)
    n_blocks = -(-n_elements // block_size)
    sign_at = 13 + n_blocks * (1 + 2 * (flags & 1) + 4)
    (n_sign,) = struct.unpack_from("<Q", buf, sign_at)
    return {
        "block_size": (0, 4),
        "flags": (4, 1),
        "sign": (sign_at, 8),
        "payload": (sign_at + 8 + n_sign, 8),
    }


def _edit_values(rng: np.random.Generator, name: str, old: int) -> int:
    if name.startswith("dim"):  # stay small: no huge block counts
        menu = [old - 1, old + 1, old + 64, old - 64, 0, 1, 2 * old,
                int(rng.integers(0, 2**20))]
    elif name == "block_size":
        menu = [old - 1, old + 1, old + 8, old - 8, 0, 1, 8, 2**32 - 1,
                int(rng.integers(0, 2**32))]
    elif name == "flags":
        menu = list(range(16))
    else:
        menu = [old - 1, old + 1, old + 8, old + 9, 0, 2 * old, 2**63 | old,
                2**64 - 1, int(rng.integers(0, 2**40))]
    return menu[int(rng.integers(len(menu)))]


def _mutations(buf: bytes, fields: dict[str, tuple[int, int]], seed: int):
    """40 seeded mutations of ``buf``: 15 flips, 10 cuts, 15 field edits."""
    rng = np.random.default_rng(seed)
    # Flips in a dimension's high bytes declare billions of elements; the
    # hostile-header tests cover that, the corpus stays cheap.
    avoid = {at + k for name, (at, _) in fields.items() if name.startswith("dim")
             for k in range(3, 8)}
    out = []
    while len(out) < 15:
        pos = int(rng.integers(len(buf)))
        if pos in avoid:
            continue
        mutant = bytearray(buf)
        mutant[pos] ^= int(rng.integers(1, 256))
        out.append(bytes(mutant))
    out.extend(buf[: int(rng.integers(len(buf)))] for _ in range(10))
    names = sorted(fields)
    for _ in range(15):
        name = names[int(rng.integers(len(names)))]
        at, width = fields[name]
        old = int.from_bytes(buf[at : at + width], "little")
        value = _edit_values(rng, name, old) % (1 << 8 * width)
        out.append(buf[:at] + value.to_bytes(width, "little") + buf[at + width :])
    return out


def mutation_corpus():
    """``(verifier, stream, n_elements)`` triples; the clean streams first."""
    cases = []
    szops = [
        SZOps(block_size=64).compress(_signal(5003, 1).astype(np.float32), 1e-3),
        SZOps(block_size=32).compress(_signal(3001, 2), 1e-4),
        SZOps(block_size=16).compress(_signal(1200, 3).reshape(40, 30), 1e-3),
    ]
    for seed, c in enumerate(szops):
        buf = c.to_bytes()
        cases.append(("szops", buf, None))
        cases.extend(("szops", m, None)
                     for m in _mutations(buf, _szops_fields(buf), 100 + seed))
    data = _signal(3001, 4)
    for seed, (lengths, signs, align) in enumerate(SZP_FLAGS):
        codec = SZp(block_size=64, store_block_lengths=lengths,
                    full_sign_bitmap=signs, word_align_payload=align)
        buf = codec.compress(data, 1e-3).payload
        cases.append(("szp", buf, data.size))
        cases.extend(("szp", m, data.size)
                     for m in _mutations(buf, _szp_fields(buf, data.size), 200 + seed))
        # The element count travels beside an SZp payload: edit it too.
        cases.extend(("szp", buf, n) for n in (data.size - 1, data.size + 1,
                                                data.size + 64))
    return cases


def corpus_findings() -> list[list[list]]:
    out = []
    for fmt, data, n_elements in mutation_corpus():
        if fmt == "szops":
            findings = verify_szops_bytes(data)
        else:
            findings = verify_szp_payload(data, n_elements)
        out.append([[f.rule, f.offset, f.message, f.severity.value, f.hint]
                     for f in findings])
    return out


def corpus_digest() -> str:
    blob = json.dumps(corpus_findings(), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_mutation_corpus_findings_pinned() -> None:
    findings = corpus_findings()
    assert len(findings) > 400
    # The corpus exercises more than the easy rules.
    rules = {f[0] for case in findings for f in case}
    assert {"VS001", "VS004", "VS005", "VS006", "VS007", "VS008"} <= rules
    assert corpus_digest() == CORPUS_DIGEST


def test_from_bytes_agrees_with_verifier() -> None:
    """``from_bytes`` parses exactly the streams that verify without error.

    On a refusal, its :class:`FormatError` carries the verifier's first
    error rule.  Over the SZOps mutation corpus and every binary fixture.
    """
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.bin"))
    streams = [data for fmt, data, _ in mutation_corpus() if fmt == "szops"]
    streams += [path.read_bytes() for path in fixtures]
    refused = 0
    for data in streams:
        errors = [f.rule for f in verify_szops_bytes(data)
                  if f.severity is Severity.ERROR]
        try:
            SZOpsCompressed.from_bytes(data)
        except FormatError as exc:
            refused += 1
            assert errors and exc.rule == errors[0]
            assert str(exc).startswith(f"{exc.rule} ")
        else:
            assert errors == []
    assert 50 < refused < len(streams)


if __name__ == "__main__":
    print(corpus_digest())
