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

__all__ = [
    "encode_chunk",
    "decode_chunk",
    "reduce_sum_chunk",
    "reduce_sq_dev_chunk",
    "reduce_extreme_chunk",
    "compress_field_chunk",
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


def reduce_sum_chunk(arrays: dict[str, np.ndarray], chunk: dict[str, Any]) -> float:
    """Partial sum of ``q[lo:hi]`` in float64 (exact for |q| < 2^53)."""
    return float(arrays["q"][chunk["lo"] : chunk["hi"]].sum(dtype=np.float64))


def reduce_sq_dev_chunk(arrays: dict[str, np.ndarray], chunk: dict[str, Any]) -> float:
    """Partial sum of squared deviations from ``chunk['mu_q']``."""
    dev = arrays["q"][chunk["lo"] : chunk["hi"]].astype(np.float64) - chunk["mu_q"]
    return float(np.dot(dev, dev))


def reduce_extreme_chunk(arrays: dict[str, np.ndarray], chunk: dict[str, Any]) -> int:
    """Partial min or max (``chunk['kind']``) of ``q[lo:hi]``."""
    q = arrays["q"][chunk["lo"] : chunk["hi"]]
    return int(q.min() if chunk["kind"] == "min" else q.max())


# ---------------------------------------------------------------------------
# in-situ multi-field kernel (one whole field per chunk)
# ---------------------------------------------------------------------------

#: Lazy per-worker codec cache, keyed by block size.  Pool workers are
#: long-lived, so each builds its codec state once and reuses it across
#: fields and timesteps (warm-pool amortization).
_FIELD_CODECS: dict[int, Any] = {}


def _field_codec(block_size: int) -> Any:
    codec = _FIELD_CODECS.get(block_size)
    if codec is None:
        from repro.core.compressor import SZOps

        codec = SZOps(block_size=block_size, n_threads=1, backend="serial")
        _FIELD_CODECS[block_size] = codec
    return codec


def compress_field_chunk(arrays: dict[str, np.ndarray], chunk: dict[str, Any]) -> bytes:
    """Compress one named field end to end; returns the serialized stream.

    The chunk names the field (``field``), the error bound (``eps``), its
    interpretation (``mode``) and the block size.  The returned bytes are
    the *compressed* stream — small relative to the field — so this is the
    one kernel whose result legitimately rides the pickle channel.
    """
    codec = _field_codec(int(chunk["block_size"]))
    c = codec.compress(arrays[chunk["field"]], chunk["eps"], mode=chunk.get("mode", "abs"))
    return bytes(c.to_bytes())
