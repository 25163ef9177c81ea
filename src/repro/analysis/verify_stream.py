"""``verify-stream``: static container verification without decompression.

Walks the byte layout of a serialized stream — header, section sizes,
per-block width plane — and cross-checks every *declared* quantity against
what the layout *implies*, without running BF decode or inverse Lorenzo.
This is the cheap first line of defence against truncated transfers,
foreign files, and bit-flipped headers: a corrupt stream is rejected in
microseconds instead of decoding to plausible garbage.

Verifiers exist for the two formats this repo owns end to end:

* ``szops`` — the SZOps container of :mod:`repro.core.format`;
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
VS005     per-block bit width out of range for the declared dtype
VS006     declared section size disagrees with what the width plane implies
VS007     non-monotonic section offsets (a declared u64 size is negative
          when read as signed int64, so the derived offset table decreases)
VS008     trailing bytes after the container payload
========  ==================================================================

Width policy (VS005): quantized deltas of an ``n``-byte float never need
more than ``8 n`` magnitude bits under a positive error bound, so widths
are capped at 32 for float32 sources and 64 for float64.  SZp streams are
always 32-bit capped (cuSZp is a float32 codec with int32 outliers).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.core.blocks import BlockLayout
from repro.core.config import valid_eps
from repro.core.errors import FormatError

__all__ = [
    "STREAM_VERIFIERS",
    "verify_szops_bytes",
    "verify_szp_payload",
    "verify_file",
    "assert_stream_ok",
]

_SZOPS_MAGIC = b"SZOPS"

#: Slack allowed between a declared section size and the minimum the width
#: plane implies, before the extra bytes are flagged (writers may pad).
_SECTION_SLACK = 8


class _Truncated(Exception):
    def __init__(self, needed: int, offset: int, what: str) -> None:
        super().__init__(what)
        self.needed = needed
        self.offset = offset
        self.what = what


class _Cursor:
    """Sequential byte reader that raises :class:`_Truncated` (not parse)."""

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise _Truncated(n, self.pos, what)
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]

    def string(self, what: str) -> str:
        n = self.u32(f"{what} length")
        raw = self.take(n, what)
        return raw.decode("utf-8", errors="replace")


def _finding(
    rule: str,
    path: str,
    offset: int,
    message: str,
    hint: str = "",
    severity: Severity = Severity.ERROR,
) -> Finding:
    return Finding(
        rule=rule,
        path=path,
        line=0,
        message=message,
        hint=hint,
        severity=severity,
        offset=offset,
    )


def _truncation_finding(exc: _Truncated, path: str) -> Finding:
    return _finding(
        "VS001",
        path,
        exc.offset,
        f"truncated stream: {exc.what} needs {exc.needed} more byte(s) at "
        f"offset {exc.offset}",
        hint="the file was cut short in transfer or the header lies about "
        "a section size; re-fetch the stream",
    )


def _declared_size(
    c: _Cursor, path: str, what: str, findings: list[Finding]
) -> int | None:
    """Read a declared u64 section size, flagging signed-negative values.

    A corrupted size with the top bit set reads as an offset that *moves
    backwards* once interpreted as signed int64 — the classic
    non-monotonic-offset corruption (VS007).  Returns ``None`` when the
    size is unusable.
    """
    at = c.pos
    raw = c.u64(f"{what} size")
    if raw >= 1 << 63:
        findings.append(
            _finding(
                "VS007",
                path,
                at,
                f"declared {what} size {raw:#x} is negative as signed int64; "
                "the derived section offset table is non-monotonic",
                hint="a corrupted or hostile size field; reject the stream",
            )
        )
        return None
    return raw


def _width_cap(itemsize: int) -> int:
    return 32 if itemsize <= 4 else 64


def _check_width_plane(
    widths: np.ndarray, cap: int, plane_offset: int, path: str
) -> list[Finding]:
    findings: list[Finding] = []
    bad = np.flatnonzero(widths > cap)
    for idx in bad[:8]:  # cap the noise; one bad byte often smears many
        findings.append(
            _finding(
                "VS005",
                path,
                plane_offset + int(idx),
                f"block {int(idx)} declares bit width {int(widths[idx])}, "
                f"above the {cap}-bit cap for this dtype",
                hint="a corrupted width byte; every downstream section "
                "boundary derived from it would be wrong",
            )
        )
    if bad.size > 8:
        findings.append(
            _finding(
                "VS005",
                path,
                plane_offset,
                f"{int(bad.size)} blocks total exceed the {cap}-bit width cap "
                "(first 8 reported individually)",
            )
        )
    return findings


def _check_section(
    name: str,
    declared: int,
    implied_min: int,
    offset: int,
    path: str,
    findings: list[Finding],
) -> None:
    """Compare a declared section size to the width-plane-implied minimum."""
    if declared < implied_min:
        findings.append(
            _finding(
                "VS006",
                path,
                offset,
                f"{name} section declares {declared} byte(s) but the width "
                f"plane implies at least {implied_min}",
                hint="the block count / width plane and the section size "
                "disagree; one of them is corrupt",
            )
        )
    elif declared > implied_min + _SECTION_SLACK:
        findings.append(
            _finding(
                "VS006",
                path,
                offset,
                f"{name} section declares {declared} byte(s), "
                f"{declared - implied_min} more than the width plane implies",
                hint="unexpected padding; tolerated but suspicious",
                severity=Severity.WARNING,
            )
        )


def verify_szops_bytes(data: bytes, path: str = "<bytes>") -> list[Finding]:
    """Statically verify a serialized SZOps stream without decompressing."""
    findings: list[Finding] = []
    c = _Cursor(data)
    try:
        magic = c.take(len(_SZOPS_MAGIC), "magic")
        if magic != _SZOPS_MAGIC:
            findings.append(
                _finding(
                    "VS002",
                    path,
                    0,
                    f"bad magic {magic!r}; not an SZOps stream",
                    hint=f"expected {_SZOPS_MAGIC!r}",
                )
            )
            return findings
        at = c.pos
        version = c.u8("version")
        if version != 1:
            findings.append(
                _finding(
                    "VS003",
                    path,
                    at,
                    f"unsupported SZOps stream version {version}",
                    hint="only version 1 exists; a corrupt byte or a stream "
                    "from a future writer",
                )
            )
            return findings
        at = c.pos
        dtype_str = c.string("dtype field")
        try:
            dtype = np.dtype(dtype_str)
        except TypeError:
            findings.append(
                _finding("VS004", path, at, f"undecodable dtype field {dtype_str!r}")
            )
            return findings
        if dtype.kind != "f" or dtype.itemsize not in (4, 8):
            findings.append(
                _finding(
                    "VS004",
                    path,
                    at,
                    f"dtype {dtype.str!r} is not a 4- or 8-byte float",
                    hint="SZOps streams carry float32/float64 data only",
                )
            )
            return findings
        ndim = c.u8("ndim")
        shape = tuple(c.u64(f"dim {i}") for i in range(ndim))
        n_elements = 1
        for dim in shape:
            n_elements *= dim
        if n_elements <= 0 or n_elements > 2**62:
            findings.append(
                _finding(
                    "VS004", path, at, f"implausible shape in header: {shape}"
                )
            )
            return findings
        at = c.pos
        eps = c.f64("eps")
        if not valid_eps(eps):
            findings.append(
                _finding("VS004", path, at, f"invalid error bound {eps} in header")
            )
            return findings
        at = c.pos
        block_size = c.u32("block size")
        if block_size <= 0:
            findings.append(
                _finding("VS004", path, at, f"invalid block size {block_size}")
            )
            return findings

        layout = BlockLayout(n_elements, block_size)
        plane_offset = c.pos
        widths = np.frombuffer(
            c.take(layout.n_blocks, "width plane"), dtype=np.uint8
        )
        findings.extend(
            _check_width_plane(widths, _width_cap(dtype.itemsize), plane_offset, path)
        )

        # Outlier plane: dtype + declared count + data (write_array framing).
        at = c.pos
        out_dtype_str = c.string("outlier dtype")
        try:
            out_dtype = np.dtype(out_dtype_str)
        except TypeError:
            findings.append(
                _finding(
                    "VS004", path, at, f"undecodable outlier dtype {out_dtype_str!r}"
                )
            )
            return findings
        if out_dtype.kind != "i":
            findings.append(
                _finding(
                    "VS004",
                    path,
                    at,
                    f"outlier plane dtype {out_dtype.str!r} is not signed integer",
                )
            )
            return findings
        at = c.pos
        out_count = _declared_size(c, path, "outlier plane", findings)
        if out_count is None:
            return findings
        if out_count != layout.n_blocks:
            findings.append(
                _finding(
                    "VS006",
                    path,
                    at,
                    f"outlier plane declares {out_count} entries but the "
                    f"header implies {layout.n_blocks} blocks "
                    f"({n_elements} elements / block size {block_size})",
                    hint="declared block count and payload geometry disagree",
                )
            )
            return findings
        c.take(out_count * out_dtype.itemsize, "outlier plane data")

        # Sign section: one bit per element of each non-constant block;
        # payload: width x length bits per block.  Both sums are exact
        # Python ints from whole-plane counts, for any width plane.
        sign_bits, payload_bits = layout.section_bits(widths)
        at = c.pos
        n_sign = _declared_size(c, path, "sign", findings)
        if n_sign is None:
            return findings
        _check_section("sign", n_sign, (sign_bits + 7) // 8, at, path, findings)
        c.take(n_sign, "sign section")

        at = c.pos
        n_payload = _declared_size(c, path, "payload", findings)
        if n_payload is None:
            return findings
        _check_section(
            "payload", n_payload, (payload_bits + 7) // 8, at, path, findings
        )
        c.take(n_payload, "payload section")
    except _Truncated as exc:
        findings.append(_truncation_finding(exc, path))
        return findings

    if c.remaining():
        findings.append(
            _finding(
                "VS008",
                path,
                c.pos,
                f"{c.remaining()} trailing byte(s) after the container payload",
                hint="either the stream was concatenated with something else "
                "or a section size field was corrupted downwards",
            )
        )
    return findings


def verify_szp_payload(
    payload: bytes, n_elements: int, path: str = "<bytes>"
) -> list[Finding]:
    """Statically verify an SZp baseline payload (any ablation flags).

    SZp payloads carry no element count; ``n_elements`` comes from the
    blob metadata (:class:`repro.baselines.base.GenericCompressed`).
    """
    if n_elements < 0:
        raise ValueError(f"n_elements must be non-negative, got {n_elements}")
    findings: list[Finding] = []
    c = _Cursor(payload)
    try:
        at = c.pos
        block_size = c.u32("block size")
        if block_size <= 0 or block_size % 8:
            findings.append(
                _finding(
                    "VS004",
                    path,
                    at,
                    f"invalid SZp block size {block_size} (must be a positive "
                    "multiple of 8)",
                )
            )
            return findings
        at = c.pos
        flags = c.u8("flags")
        if flags & ~0b111:
            findings.append(
                _finding(
                    "VS004",
                    path,
                    at,
                    f"unknown SZp flag bits set: {flags:#04x}",
                    hint="only bits 0-2 (lengths, full signs, word align) exist",
                )
            )
            return findings
        store_lengths = bool(flags & 1)
        full_signs = bool(flags & 2)
        word_align = bool(flags & 4)
        at = c.pos
        eps = c.f64("eps")
        if not valid_eps(eps):
            findings.append(
                _finding("VS004", path, at, f"invalid error bound {eps} in header")
            )
            return findings

        layout = BlockLayout(n_elements, block_size)
        plane_offset = c.pos
        widths = np.frombuffer(
            c.take(layout.n_blocks, "width plane"), dtype=np.uint8
        )
        findings.extend(_check_width_plane(widths, 32, plane_offset, path))
        if any(f.rule == "VS005" for f in findings):
            return findings

        align_bits = 32 if word_align else 1
        if store_lengths:
            at = c.pos
            byte_lens = np.frombuffer(
                c.take(layout.n_blocks * 2, "length plane"), dtype="<u2"
            )
            # Per-block sizes, built only once the plane backing them is here.
            bits = -(-(widths * layout.lengths()) // align_bits) * align_bits
            implied = -(-bits // 8)
            mismatch = np.flatnonzero(byte_lens != implied)
            for i in mismatch[:8].tolist():
                findings.append(
                    _finding(
                        "VS006",
                        path,
                        at + 2 * i,
                        f"length plane says block {i} spans "
                        f"{int(byte_lens[i])} byte(s) but its width implies "
                        f"{int(implied[i])}",
                        hint="the redundant length plane disagrees with the "
                        "width plane; the stream is internally inconsistent",
                    )
                )
            if mismatch.size:
                return findings
        c.take(layout.n_blocks * 4, "outlier plane")

        # Constant blocks carry no payload bits, so the payload sum is the
        # same whether or not they carry sign bits.
        sign_bits, payload_bits = layout.section_bits(widths, align_bits)
        if full_signs:
            sign_bits = n_elements
        at = c.pos
        n_sign = _declared_size(c, path, "sign", findings)
        if n_sign is None:
            return findings
        _check_section("sign", n_sign, (sign_bits + 7) // 8, at, path, findings)
        c.take(n_sign, "sign section")

        at = c.pos
        n_payload = _declared_size(c, path, "payload", findings)
        if n_payload is None:
            return findings
        _check_section(
            "payload", n_payload, (payload_bits + 7) // 8, at, path, findings
        )
        c.take(n_payload, "payload section")
    except _Truncated as exc:
        findings.append(_truncation_finding(exc, path))
        return findings

    if c.remaining():
        findings.append(
            _finding(
                "VS008",
                path,
                c.pos,
                f"{c.remaining()} trailing byte(s) after the container payload",
            )
        )
    return findings


#: Registry of stream verifiers, keyed by format name (CLI ``--format``).
STREAM_VERIFIERS: dict[str, Callable[..., list[Finding]]] = {
    "szops": verify_szops_bytes,
    "szp": verify_szp_payload,
}


def verify_file(
    path: Path | str,
    fmt: str | None = None,
    n_elements: int | None = None,
) -> list[Finding]:
    """Verify a stream file; sniffs the format from the magic by default."""
    path = Path(path)
    data = path.read_bytes()
    if fmt is None:
        fmt = "szops" if data[: len(_SZOPS_MAGIC)] == _SZOPS_MAGIC else "szp"
    if fmt not in STREAM_VERIFIERS:
        raise ValueError(
            f"unknown stream format {fmt!r}; known: {sorted(STREAM_VERIFIERS)}"
        )
    if fmt == "szp":
        if n_elements is None:
            raise ValueError(
                "SZp payloads do not record the element count; pass n_elements"
            )
        return verify_szp_payload(data, n_elements, path=str(path))
    return verify_szops_bytes(data, path=str(path))


def assert_stream_ok(
    data: bytes, fmt: str = "szops", n_elements: int | None = None
) -> None:
    """Library assertion: raise :class:`FormatError` on any error finding.

    Cheap enough to run before handing untrusted bytes to
    ``SZOpsCompressed.from_bytes`` or a baseline's ``decompress``.
    """
    if fmt == "szp":
        if n_elements is None:
            raise ValueError("n_elements is required for SZp payloads")
        findings = verify_szp_payload(data, n_elements)
    elif fmt == "szops":
        findings = verify_szops_bytes(data)
    else:
        raise ValueError(f"unknown stream format {fmt!r}")
    errors = [f for f in findings if f.severity is Severity.ERROR]
    if errors:
        raise FormatError(
            "stream failed static verification: "
            + "; ".join(f"{f.rule} {f.message}" for f in errors[:4])
        )
