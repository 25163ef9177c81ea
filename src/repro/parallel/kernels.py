"""Module-level chunk kernels for the execution backends.

Every kernel here is picklable by qualified name (the process backend's
requirement) and follows the one calling convention of
:data:`repro.parallel.backends.base.ChunkKernel`: ``kernel(arrays, chunk)``
where ``arrays`` maps names to NumPy views (inputs plus in-place outputs)
and ``chunk`` is a small dict of plain values.  Kernels write bulk results
into the preallocated output arrays at chunk-specific offsets and return
only small summaries, so nothing large ever crosses the pickle boundary.

The same kernels serve all three backends — serial and threads call them
against the caller's own arrays, processes against shared-memory views —
which is what makes cross-backend bit-identity a structural property
rather than a test hope.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bitstream import BitpackKernel, resolve_kernel
from repro.core.encode import decode_block_sections, encode_block_sections
from repro.core.moments import QuantizedMoments

__all__ = [
    "encode_chunk",
    "decode_chunk",
    "reduce_moments_chunk",
]


#: Lazy per-worker bitpack-kernel cache, keyed by requested kernel name.
#: Pool workers are long-lived, so each resolves its kernel variant once
#: and reuses the instance across chunks — for the numba variant this is
#: what keeps the JIT compilation a one-time per-worker cost.
_BITPACK_KERNELS: dict[str, BitpackKernel] = {}


def _bitpack_kernel(name: str) -> BitpackKernel:
    kern = _BITPACK_KERNELS.get(name)
    if kern is None:
        kern = resolve_kernel(name)
        _BITPACK_KERNELS[name] = kern
    return kern


# ---------------------------------------------------------------------------
# compressor kernels (BF stage over a block-aligned chunk)
# ---------------------------------------------------------------------------


def encode_chunk(arrays: dict[str, np.ndarray], chunk: dict[str, Any]) -> tuple[int, int]:
    """Encode one block-aligned chunk's sign + payload sections in place.

    Expects ``mags``/``signs`` (per element), ``widths``/``lens`` (per
    block), and the ``sign_out``/``payload_out`` output sections; the
    chunk carries block bounds (``lo``/``hi``), element bounds
    (``elem_lo``/``elem_hi``) and the byte offsets where this chunk's
    sections land (``sign_off``/``payload_off`` — byte-exact because
    chunks are block-aligned and the block size is a multiple of 8).
    """
    lo, hi = chunk["lo"], chunk["hi"]
    elo, ehi = chunk["elem_lo"], chunk["elem_hi"]
    sign_bytes, payload_bytes = encode_block_sections(
        arrays["mags"][elo:ehi],
        arrays["signs"][elo:ehi],
        arrays["widths"][lo:hi],
        arrays["lens"][lo:hi],
        kernel=_bitpack_kernel(chunk.get("kernel", "auto")),
    )
    so, po = chunk["sign_off"], chunk["payload_off"]
    arrays["sign_out"][so : so + sign_bytes.size] = sign_bytes
    arrays["payload_out"][po : po + payload_bytes.size] = payload_bytes
    return int(sign_bytes.size), int(payload_bytes.size)


def decode_chunk(arrays: dict[str, np.ndarray], chunk: dict[str, Any]) -> int:
    """Decode one chunk's blocks back to signed deltas, written in place.

    Expects ``sign_bytes``/``payload_bytes`` (whole sections),
    ``widths``/``lens`` (per block) and the ``deltas_out`` output; the
    chunk carries block/element bounds plus this chunk's byte ranges into
    the two sections (``sign_b0``/``sign_b1``, ``payload_b0``/``payload_b1``).
    """
    lo, hi = chunk["lo"], chunk["hi"]
    elo, ehi = chunk["elem_lo"], chunk["elem_hi"]
    decode_block_sections(
        arrays["sign_bytes"][chunk["sign_b0"] : chunk["sign_b1"]],
        arrays["payload_bytes"][chunk["payload_b0"] : chunk["payload_b1"]],
        arrays["widths"][lo:hi],
        arrays["lens"][lo:hi],
        kernel=_bitpack_kernel(chunk.get("kernel", "auto")),
        out=arrays["deltas_out"][elo:ehi],
    )
    return ehi - elo


# ---------------------------------------------------------------------------
# reduction kernels (partial aggregates over the stored quantized values)
# ---------------------------------------------------------------------------


def reduce_moments_chunk(
    arrays: dict[str, np.ndarray], chunk: dict[str, Any]
) -> QuantizedMoments:
    """Exact moments of ``q[lo:hi]`` (combined by the caller)."""
    return QuantizedMoments.of_values(arrays["q"][chunk["lo"] : chunk["hi"]])
