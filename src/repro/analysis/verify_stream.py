"""``verify-stream``: static container verification without decompression.

Walks the byte layout of a serialized stream — header, section sizes,
per-block width plane — and cross-checks every *declared* quantity against
what the layout *implies*, without running BF decode or inverse Lorenzo.
This is the cheap first line of defence against truncated transfers,
foreign files, and bit-flipped headers: a corrupt stream is rejected in
microseconds instead of decoding to plausible garbage.

Verifiers exist for the two formats this repo owns end to end:

* ``szops`` — the SZOps container of :mod:`repro.core.format`.  Its one
  walk is :func:`repro.core.format.parse_stream`, the same walk
  ``SZOpsCompressed.from_bytes`` runs, so a stream verifies clean exactly
  when it parses; this module only anchors its findings to a path;
* ``szp``  — the SZp baseline payload of :mod:`repro.baselines.szp`
  (all ablation flag combinations).  SZp payloads do not record the
  element count, so the caller must supply ``n_elements``.

Rule ids
--------
========  ==================================================================
VS001     truncated stream (a section needs more bytes than remain)
VS002     bad magic
VS003     unsupported format version
VS004     invalid header field (dtype, shape, eps, block size, flags)
VS005     per-block bit width above the format's cap
VS006     declared section size disagrees with what the width plane implies
VS007     non-monotonic section offsets (a declared u64 size is negative
          when read as signed int64, so the derived offset table decreases)
VS008     trailing bytes after the container payload
========  ==================================================================

Width policy (VS005): SZOps widths are capped at 64 bits for every dtype,
the decoder's limit (:data:`repro.core.format.WIDTH_CAP`); at a small
error bound the quantized deltas of a float need more bits than the float
has.  SZp streams are 32-bit capped (cuSZp is a float32 codec with int32
outliers).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.bitstream import ByteReader
from repro.core.blocks import BlockLayout
from repro.core.config import valid_eps
from repro.core.errors import FormatError
from repro.core.format import (
    MAGIC,
    StopWalk,
    StreamFinding,
    declared_size,
    parse_stream,
    run_walk,
    section_findings,
    trailing_findings,
    width_findings,
)

__all__ = [
    "STREAM_VERIFIERS",
    "verify_szops_bytes",
    "verify_szp_payload",
    "verify_file",
    "assert_stream_ok",
]


def _anchored(findings: list[StreamFinding], path: str) -> list[Finding]:
    return [
        Finding(
            rule=f.rule,
            path=path,
            line=0,
            message=f.message,
            hint=f.hint,
            severity=Severity(f.severity),
            offset=f.offset,
        )
        for f in findings
    ]


def verify_szops_bytes(data: bytes, path: str = "<bytes>") -> list[Finding]:
    """Statically verify a serialized SZOps stream without decompressing."""
    return _anchored(parse_stream(data)[1], path)


def verify_szp_payload(
    payload: bytes, n_elements: int, path: str = "<bytes>"
) -> list[Finding]:
    """Statically verify an SZp baseline payload (any ablation flags).

    SZp payloads carry no element count; ``n_elements`` comes from the
    blob metadata (:class:`repro.baselines.base.GenericCompressed`).
    """
    if n_elements < 0:
        raise ValueError(f"n_elements must be non-negative, got {n_elements}")

    def walk(r: ByteReader, findings: list[StreamFinding]) -> None:
        _walk_szp(r, n_elements, findings)

    return _anchored(run_walk(walk, payload)[1], path)


def _walk_szp(r: ByteReader, n_elements: int, findings: list[StreamFinding]) -> None:
    at = r.tell()
    block_size = r.read_u32("block size")
    if block_size <= 0 or block_size % 8:
        raise StopWalk(
            "VS004",
            at,
            f"invalid SZp block size {block_size} (must be a positive multiple of 8)",
        )
    at = r.tell()
    flags = r.read_u8("flags")
    if flags & ~0b111:
        raise StopWalk(
            "VS004",
            at,
            f"unknown SZp flag bits set: {flags:#04x}",
            "only bits 0-2 (lengths, full signs, word align) exist",
        )
    store_lengths = bool(flags & 1)
    full_signs = bool(flags & 2)
    word_align = bool(flags & 4)
    at = r.tell()
    eps = r.read_f64("eps")
    if not valid_eps(eps):
        raise StopWalk("VS004", at, f"invalid error bound {eps} in header")

    layout = BlockLayout(n_elements, block_size)
    plane_offset = r.tell()
    widths = np.frombuffer(r.read_bytes(layout.n_blocks, "width plane"), dtype=np.uint8)
    findings += width_findings(widths, plane_offset, cap=32)
    if findings:
        return

    align_bits = 32 if word_align else 1
    if store_lengths:
        at = r.tell()
        byte_lens = np.frombuffer(
            r.read_bytes(layout.n_blocks * 2, "length plane"), dtype="<u2"
        )
        # Per-block sizes, built only once the plane backing them is here.
        bits = -(-(widths * layout.lengths()) // align_bits) * align_bits
        implied = -(-bits // 8)
        mismatch = np.flatnonzero(byte_lens != implied)
        for i in mismatch[:8].tolist():
            findings.append(
                StreamFinding(
                    "VS006",
                    at + 2 * i,
                    f"length plane says block {i} spans "
                    f"{int(byte_lens[i])} byte(s) but its width implies "
                    f"{int(implied[i])}",
                    hint="the redundant length plane disagrees with the "
                    "width plane; the stream is internally inconsistent",
                )
            )
        if mismatch.size:
            return
    r.read_bytes(layout.n_blocks * 4, "outlier plane")

    # Constant blocks carry no payload bits, so the payload sum is the
    # same whether or not they carry sign bits.
    sign_bits, payload_bits = layout.section_bits(widths, align_bits)
    if full_signs:
        sign_bits = n_elements
    for name, bits in (("sign", sign_bits), ("payload", payload_bits)):
        at = r.tell()
        size = declared_size(r, name)
        findings += section_findings(name, size, bits, at)
        r.read_bytes(size, f"{name} section")
    findings += trailing_findings(r)


#: Registry of stream verifiers, keyed by format name (CLI ``--format``).
STREAM_VERIFIERS: dict[str, Callable[..., list[Finding]]] = {
    "szops": verify_szops_bytes,
    "szp": verify_szp_payload,
}


def _verify(
    data: bytes, fmt: str, n_elements: int | None, path: str
) -> list[Finding]:
    if fmt not in STREAM_VERIFIERS:
        raise ValueError(
            f"unknown stream format {fmt!r}; known: {sorted(STREAM_VERIFIERS)}"
        )
    if fmt == "szops":
        return verify_szops_bytes(data, path)
    if n_elements is None:
        raise ValueError(
            "SZp payloads do not record the element count; pass n_elements"
        )
    return verify_szp_payload(data, n_elements, path)


def verify_file(
    path: Path | str,
    fmt: str | None = None,
    n_elements: int | None = None,
) -> list[Finding]:
    """Verify a stream file; sniffs the format from the magic by default."""
    path = Path(path)
    data = path.read_bytes()
    if fmt is None:
        fmt = "szops" if data[: len(MAGIC)] == MAGIC else "szp"
    return _verify(data, fmt, n_elements, str(path))


def assert_stream_ok(
    data: bytes, fmt: str = "szops", n_elements: int | None = None
) -> None:
    """Library assertion: raise :class:`FormatError` on any error finding.

    For SZOps this is the check ``SZOpsCompressed.from_bytes`` makes
    itself, reporting up to four errors; for SZp it is cheap enough to run
    before handing untrusted bytes to the baseline's ``decompress``.
    """
    findings = _verify(data, fmt, n_elements, "<bytes>")
    errors = [f for f in findings if f.severity is Severity.ERROR]
    if errors:
        raise FormatError(
            "stream failed static verification: "
            + "; ".join(f"{f.rule} {f.message}" for f in errors[:4]),
            rule=errors[0].rule,
        )
