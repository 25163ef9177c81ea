"""Regenerate the corrupt-container fixtures in this directory.

Each fixture is a deterministic corruption of a freshly compressed stream,
so the binaries can always be rebuilt from source::

    PYTHONPATH=src python tests/analysis/fixtures/make_fixtures.py

Fixtures (all rejected by ``repro.cli verify-stream``):

================================  ======  =================================
file                              rule    corruption
================================  ======  =================================
truncated_payload.bin             VS001   stream cut mid-payload
bad_magic.bin                     VS002   first five bytes overwritten
width33.bin                       VS006   one width byte raised to 33 on a
                                          float32 stream: the declared
                                          payload is now too short
width65.bin                       VS005   the same, raised to 65 (the cap
                                          is 64 bits for every dtype)
nonmonotonic_offsets.bin          VS007   sign-section size's top bit set,
                                          so the derived offset table moves
                                          backwards as signed int64
trailing_bytes.bin                VS008   four bytes appended past the end
szp_bad_lengths.bin               VS006   SZp length plane disagrees with
                                          the width plane (n_elements 4096)
huge_header.bin                   VS001   a 256-element stream whose header
                                          declares 2**40 elements at block
                                          size 1: the width plane it implies
                                          is far past the end of the bytes
dtype_huge_subarray.bin           VS004   dtype field rewritten to
                                          ``(1000000000,1000000000)f8``,
                                          which ``np.dtype`` refuses with
                                          ValueError
dtype_not_utf8.bin                VS004   dtype field rewritten to bytes
                                          that are not UTF-8
================================  ======  =================================
"""

from __future__ import annotations

import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

N_ELEMENTS = 4096
BLOCK_SIZE = 64
EPS = 1e-3

HERE = Path(__file__).resolve().parent


def _base_container(n_elements: int = N_ELEMENTS):
    from repro import SZOps

    rng = np.random.default_rng(1234)
    data = np.cumsum(rng.standard_normal(N_ELEMENTS)).astype(np.float32)
    # Plant a constant block so width-0 handling is exercised too.
    data[256:320] = data[256]
    return SZOps(block_size=BLOCK_SIZE).compress(data[:n_elements], EPS)


def _szp_payload() -> bytes:
    from repro.baselines.szp import SZp

    rng = np.random.default_rng(1234)
    data = np.cumsum(rng.standard_normal(N_ELEMENTS))
    return SZp(block_size=BLOCK_SIZE).compress(data, EPS).payload


def main() -> None:
    c = _base_container()
    buf = c.to_bytes()

    (HERE / "truncated_payload.bin").write_bytes(buf[: len(buf) - len(buf) // 4])

    bad_magic = bytearray(buf)
    bad_magic[0:5] = b"XXOPS"
    (HERE / "bad_magic.bin").write_bytes(bytes(bad_magic))

    # Raise one *stored* block's width by editing the container: the
    # serialized sections keep their sizes, so the payload is now short.
    for width in (33, 65):
        widths = c.widths.copy()
        widths[int(np.flatnonzero(widths > 0)[3])] = width
        wide = replace(c, widths=widths)
        (HERE / f"width{width}.bin").write_bytes(wide.to_bytes())

    # Overwrite the sign-section size (u64) with a value whose top bit is
    # set: as signed int64 it is negative, so the derived section offsets
    # decrease.  The field sits 8 + n_sign + 8 + n_payload bytes from the
    # stream's end.
    nonmono = bytearray(buf)
    sign_size_at = len(buf) - (8 + c.sign_bytes.size + 8 + c.payload_bytes.size)
    nonmono[sign_size_at : sign_size_at + 8] = struct.pack("<Q", (1 << 63) | 1)
    (HERE / "nonmonotonic_offsets.bin").write_bytes(bytes(nonmono))

    (HERE / "trailing_bytes.bin").write_bytes(buf + b"\x00\x00\x00\x00")

    # SZp: bump one entry of the redundant u16 length plane so it no longer
    # matches what the width plane implies.
    szp = bytearray(_szp_payload())
    n_blocks = N_ELEMENTS // BLOCK_SIZE
    length_plane_at = 4 + 1 + 8 + n_blocks  # block size + flags + eps + widths
    (old,) = struct.unpack_from("<H", szp, length_plane_at + 2 * 7)
    struct.pack_into("<H", szp, length_plane_at + 2 * 7, old + 1)
    (HERE / "szp_bad_lengths.bin").write_bytes(bytes(szp))

    # A real small stream, header rewritten to declare 2**40 elements at
    # block size 1 (the 1-D float32 header keeps the element count at byte
    # 14 and the block size at byte 30).  A verifier that sizes anything by
    # the header before checking the bytes behind it allocates terabytes.
    huge = bytearray(_base_container(256).to_bytes())
    assert huge[13] == 1 and struct.unpack_from("<QdI", huge, 14)[2] == BLOCK_SIZE
    struct.pack_into("<Q", huge, 14, 2**40)
    struct.pack_into("<I", huge, 30, 1)
    (HERE / "huge_header.bin").write_bytes(bytes(huge))

    # The dtype field (u32 length + text) sits right after magic + version.
    dtype_at = len(b"SZOPS") + 1
    (old_len,) = struct.unpack_from("<I", buf, dtype_at)
    rest = buf[dtype_at + 4 + old_len :]
    for name, field in (
        ("dtype_huge_subarray.bin", b"(1000000000,1000000000)f8"),
        ("dtype_not_utf8.bin", b"<f\xff\xfe"),
    ):
        header = buf[:dtype_at] + struct.pack("<I", len(field)) + field
        (HERE / name).write_bytes(header + rest)

    for name in sorted(p.name for p in HERE.glob("*.bin")):
        print(name)


if __name__ == "__main__":
    main()
