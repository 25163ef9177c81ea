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
width33.bin                       VS005   one width byte raised to 33 on a
                                          float32 stream (cap is 32)
nonmonotonic_offsets.bin          VS007   sign-section size's top bit set,
                                          so the derived offset table moves
                                          backwards as signed int64
trailing_bytes.bin                VS008   four bytes appended past the end
szp_bad_lengths.bin               VS006   SZp length plane disagrees with
                                          the width plane (n_elements 4096)
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


def _base_container():
    from repro import SZOps

    rng = np.random.default_rng(1234)
    data = np.cumsum(rng.standard_normal(N_ELEMENTS)).astype(np.float32)
    # Plant a constant block so width-0 handling is exercised too.
    data[256:320] = data[256]
    return SZOps(block_size=BLOCK_SIZE).compress(data, EPS)


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

    # Raise one *stored* block's width to 33 by editing the container, so
    # the serialized stream is self-consistent apart from the width cap.
    widths = c.widths.copy()
    widths[int(np.flatnonzero(widths > 0)[3])] = 33
    wide = replace(c, widths=widths)
    (HERE / "width33.bin").write_bytes(wide.to_bytes())

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

    for name in sorted(p.name for p in HERE.glob("*.bin")):
        print(name)


if __name__ == "__main__":
    main()
