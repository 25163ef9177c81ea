"""The SZOps compressor: QZ -> LZ -> BF, and its inverse.

This is the CPU reimplementation of the paper's pipeline (Section IV): the
array is quantized against the user error bound, decorrelated with a
blockwise 1-D Lorenzo operator, split into sign bitmaps and magnitudes, and
the magnitudes are stored with blockwise fixed-length encoding.  Constant
blocks (all deltas zero) carry only a width byte and an outlier.

Parallelism follows the paper's multi-threaded CPU SZp port, generalized to
a pluggable execution backend (:mod:`repro.parallel.backends`): blocks are
independent, so contiguous block-aligned chunks are encoded/decoded by the
configured substrate — inline (``serial``), a thread pool (``threads``), or
a warm process pool with shared-memory zero-copy transport
(``processes``) — and their byte-aligned sections written at precomputed
offsets.  Alignment is guaranteed because the block size is a multiple of 8
and only the globally last block may be ragged (see
:class:`repro.core.config.SZOpsConfig`).  Every backend produces
bit-identical streams.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro.bitstream import exclusive_cumsum
from repro.core.blocks import BlockLayout
from repro.core.config import SZOpsConfig, check_eps, resolve_error_bound
from repro.core.encode import (
    EncodeFront,
    decode_block_sections,
    encode_bins,
    encode_block_sections,
    encode_front,
)
from repro.core.format import SZOpsCompressed, stream_dtype
from repro.core.lorenzo import lorenzo_forward, lorenzo_inverse
from repro.core.quantize import dequantize, quantize, quantize_error
from repro.parallel import kernels
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.parallel.partition import BlockChunk, block_chunks

__all__ = ["SZOps", "encode_values"]


def _accumulate(timings: dict[str, float], key: str, seconds: float) -> None:
    timings[key] = timings.get(key, 0.0) + seconds


def encode_values(
    flat: np.ndarray,
    eps: float,
    block_size: int,
    timings: dict[str, float] | None = None,
) -> EncodeFront:
    """QZ, LZ and the rest of the encode front over ``flat``, tile by tile.

    Raises what one :func:`~repro.core.quantize.quantize` call over all of
    ``flat`` would: a later tile's non-finite input outranks an earlier
    tile's overflow.  ``timings`` accumulates ``"quantize_s"`` (QZ) and
    ``"lorenzo_s"`` (LZ and the rest of the front).
    """
    check_eps(eps)
    qz_s = 0.0

    def tile_deltas(
        elems: slice, tile_layout: BlockLayout, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        nonlocal qz_s
        t0 = perf_counter()
        try:
            q = quantize(flat[elems], eps)
        except ValueError:
            raise quantize_error(flat, eps) from None
        qz_s += perf_counter() - t0
        return lorenzo_forward(q, tile_layout, out=out)

    t0 = perf_counter()
    front = encode_front(BlockLayout(flat.size, block_size), tile_deltas)
    if timings is not None:
        _accumulate(timings, "quantize_s", qz_s)
        _accumulate(timings, "lorenzo_s", perf_counter() - t0 - qz_s)
    return front


class SZOps:
    """Error-bounded lossy compressor with compressed-domain scalar ops.

    Parameters
    ----------
    block_size : elements per 1-D block (multiple of 8), default 64 (the
        geometry the paper's Table VI block counts imply).
    n_threads : workers for chunked encode/decode; 1 runs inline.
    backend : execution substrate — a registered name (``"serial"`` /
        ``"threads"`` / ``"processes"``) or a ready
        :class:`~repro.parallel.backends.ExecutionBackend` instance (shared,
        not owned: :meth:`close` leaves it running).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import SZOps
    >>> codec = SZOps()
    >>> data = np.cumsum(np.random.default_rng(0).normal(size=4096)).astype(np.float32)
    >>> c = codec.compress(data, error_bound=1e-3)
    >>> np.abs(codec.decompress(c) - data).max() <= 1e-3
    True
    """

    # Lock discipline (verified lexically by `repro.cli lint`'s lockcheck
    # pass, same as ThreadBackend): every mutation of these attributes
    # must hold self._lock.  A codec may be shared across threads — e.g.
    # several in-situ fields compressing concurrently — and an unguarded
    # lazy backend creation can build two pools and leak one.
    _GUARDED_ATTRS = ("_pool",)

    def __init__(
        self,
        block_size: int = 64,
        n_threads: int = 1,
        config: SZOpsConfig | None = None,
        backend: str | ExecutionBackend | None = None,
    ) -> None:
        if config is not None:
            self.config = config
        else:
            backend_name = backend if isinstance(backend, str) else None
            if isinstance(backend, ExecutionBackend):
                backend_name = backend.name
            self.config = SZOpsConfig(
                block_size=block_size,
                n_threads=n_threads,
                **({"backend": backend_name} if backend_name is not None else {}),
            )
        self._lock = threading.Lock()
        self._owns_pool = not isinstance(backend, ExecutionBackend)
        self._pool: ExecutionBackend | None = (
            backend if isinstance(backend, ExecutionBackend) else None
        )

    # ------------------------------------------------------------------ helpers

    @property
    def block_size(self) -> int:
        return self.config.block_size

    @property
    def n_threads(self) -> int:
        return self.config.n_threads

    @property
    def backend_name(self) -> str:
        """The configured execution-backend name."""
        return self._pool.name if self._pool is not None else self.config.backend

    def _ensure_backend(self) -> ExecutionBackend:
        with self._lock:
            if self._pool is None:
                self._pool = get_backend(self.config.backend, self.config.n_threads)
            return self._pool

    def _chunks(self, n_elements: int) -> list[BlockChunk]:
        """Block-aligned chunks, one per worker (all blocks covered)."""
        return block_chunks(n_elements, self.config.block_size, self.config.n_threads)

    # ------------------------------------------------------------------ compress

    def compress(
        self,
        data: np.ndarray,
        error_bound: float,
        mode: str = "abs",
        *,
        timings: dict[str, float] | None = None,
    ) -> SZOpsCompressed:
        """Compress ``data`` under an absolute or value-range-relative bound.

        QZ, LZ and the sign/magnitude/width split run tile by tile
        (:func:`encode_values`); the errors are those of
        one :func:`~repro.core.quantize.quantize` call over all of ``data``.
        ``timings``, when given, accumulates per-stage wall time under the
        keys ``"quantize_s"`` (QZ), ``"lorenzo_s"`` (LZ and the rest of the
        encode front) and ``"encode_s"`` (BF) — the Figure 5-style breakdown
        the parallel benchmark uses to attribute backend wins.

        ``data`` must be float16, float32 or float64
        (:func:`~repro.core.format.stream_dtype`); anything else, long
        double included, raises :class:`TypeError`.
        """
        arr = np.asarray(data)
        if not stream_dtype(arr.dtype):
            raise TypeError(
                "SZOps compresses floating-point data (float16, float32 or "
                f"float64), got {arr.dtype}"
            )
        flat = np.ascontiguousarray(arr, dtype=arr.dtype).reshape(-1)
        if flat.size == 0:
            raise ValueError("cannot compress an empty array")
        value_range = float(flat.max() - flat.min()) if mode == "rel" else 0.0
        eps = resolve_error_bound(error_bound, mode, value_range)
        front = encode_values(flat, eps, self.block_size, timings)
        return self._encode_sections(front, arr.shape, arr.dtype, eps, timings)

    def encode_quantized(
        self,
        q: np.ndarray,
        shape: tuple[int, ...],
        dtype: np.dtype,
        eps: float,
        *,
        timings: dict[str, float] | None = None,
    ) -> SZOpsCompressed:
        """Run LZ + BF on an already-quantized integer array.

        The stream equals :meth:`compress`'s for data that quantizes to
        ``q``.  (Scalar multiplication re-encodes through
        :func:`repro.core.ops._partial.rebuild_stored` instead, which keeps
        constant blocks out of the payload work.)
        """
        t0 = perf_counter()
        front = encode_bins(q, self.block_size)
        if timings is not None:
            _accumulate(timings, "lorenzo_s", perf_counter() - t0)
        return self._encode_sections(front, shape, dtype, eps, timings)

    def _encode_sections(
        self,
        front: EncodeFront,
        shape: tuple[int, ...],
        dtype: np.dtype,
        eps: float,
        timings: dict[str, float] | None,
    ) -> SZOpsCompressed:
        """The BF stage: pack the front's planes into a container."""
        signs, mags, widths, outliers = front
        lens = BlockLayout(signs.size, self.config.block_size).lengths()
        t0 = perf_counter()
        chunks = self._chunks(signs.size)
        if len(chunks) == 1:
            sign_bytes, payload_bytes = encode_block_sections(
                mags, signs, widths, lens, kernel=self.config.bitpack_kernel
            )
        else:
            sign_bytes, payload_bytes = self._encode_chunked(
                mags, signs, widths, lens, chunks
            )
        if timings is not None:
            _accumulate(timings, "encode_s", perf_counter() - t0)

        return SZOpsCompressed(
            shape=tuple(shape),
            dtype=np.dtype(dtype),
            eps=float(eps),
            block_size=self.config.block_size,
            widths=widths,
            outliers=outliers,
            sign_bytes=sign_bytes,
            payload_bytes=payload_bytes,
        )

    def _encode_chunked(
        self,
        mags: np.ndarray,
        signs: np.ndarray,
        widths: np.ndarray,
        lens: np.ndarray,
        chunks: list[BlockChunk],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode block-aligned chunks through the execution backend.

        Per-chunk section byte offsets are derived from the width plane up
        front (chunk starts are block-aligned, so the bit offsets are whole
        bytes); every chunk kernel writes its sections straight into the
        preallocated output buffers — concatenation by construction, which
        is what keeps the stream bit-identical across backends and worker
        counts.
        """
        sign_bits = lens * (widths > 0)
        payload_bits = widths.astype(np.int64) * lens
        sign_bit_off = exclusive_cumsum(sign_bits)
        payload_bit_off = exclusive_cumsum(payload_bits)
        total_sign_bytes = (int(sign_bits.sum()) + 7) // 8
        total_payload_bytes = (int(payload_bits.sum()) + 7) // 8
        chunk_specs = [
            {
                "lo": c.block_lo,
                "hi": c.block_hi,
                "elem_lo": c.elem_lo,
                "elem_hi": c.elem_hi,
                "sign_off": int(sign_bit_off[c.block_lo]) // 8,
                "payload_off": int(payload_bit_off[c.block_lo]) // 8,
                "kernel": self.config.bitpack_kernel,
            }
            for c in chunks
        ]
        run = self._ensure_backend().run_kernel(
            kernels.encode_chunk,
            {"mags": mags, "signs": signs, "widths": widths, "lens": lens},
            chunk_specs,
            out_specs={
                "sign_out": ((total_sign_bytes,), np.uint8),
                "payload_out": ((total_payload_bytes,), np.uint8),
            },
        )
        return run.outputs["sign_out"], run.outputs["payload_out"]

    # ------------------------------------------------------------------ decompress

    def _section_offsets(
        self, c: SZOpsCompressed
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block cumulative bit offsets into the sign/payload sections."""
        layout = c.layout
        lens = layout.lengths()
        stored = (c.widths > 0).astype(np.int64)
        sign_bits = exclusive_cumsum(lens * stored)
        payload_bits = exclusive_cumsum(c.widths.astype(np.int64) * lens)
        return lens, sign_bits, payload_bits

    def decode_deltas(self, c: SZOpsCompressed) -> np.ndarray:
        """Decode BF + signs back to the signed delta array (partial decode)."""
        layout = c.layout
        lens, sign_bit_off, payload_bit_off = self._section_offsets(c)
        chunks = self._chunks(layout.n_elements)
        if len(chunks) == 1:
            return decode_block_sections(
                c.sign_bytes,
                c.payload_bytes,
                c.widths,
                lens,
                kernel=self.config.bitpack_kernel,
            )

        stored_lens = lens * (c.widths > 0)
        sign_total = int(stored_lens.sum())
        payload_total = int((c.widths.astype(np.int64) * lens).sum())

        def end_bits(cum: np.ndarray, total: int, hi: int) -> int:
            return int(cum[hi]) if hi < layout.n_blocks else total

        chunk_specs = [
            {
                "lo": ch.block_lo,
                "hi": ch.block_hi,
                "elem_lo": ch.elem_lo,
                "elem_hi": ch.elem_hi,
                "sign_b0": int(sign_bit_off[ch.block_lo]) // 8,
                "sign_b1": (end_bits(sign_bit_off, sign_total, ch.block_hi) + 7) // 8,
                "payload_b0": int(payload_bit_off[ch.block_lo]) // 8,
                "payload_b1": (
                    end_bits(payload_bit_off, payload_total, ch.block_hi) + 7
                ) // 8,
                "kernel": self.config.bitpack_kernel,
            }
            for ch in chunks
        ]
        run = self._ensure_backend().run_kernel(
            kernels.decode_chunk,
            {
                "sign_bytes": c.sign_bytes,
                "payload_bytes": c.payload_bytes,
                "widths": c.widths,
                "lens": lens,
            },
            chunk_specs,
            out_specs={"deltas_out": ((layout.n_elements,), np.int64)},
        )
        return run.outputs["deltas_out"]

    def decompress_quantized(self, c: SZOpsCompressed) -> np.ndarray:
        """Partial decompression: recover the quantized integers (no QZ^-1)."""
        c.validate_structure()
        deltas = self.decode_deltas(c)
        return lorenzo_inverse(deltas, c.outliers, c.layout, out=deltas)

    def decompress(self, c: SZOpsCompressed) -> np.ndarray:
        """Full decompression back to a floating-point array of ``c.shape``."""
        q = self.decompress_quantized(c)
        return dequantize(q, c.eps, c.dtype).reshape(c.shape)

    # ------------------------------------------------------------------ misc

    def close(self) -> None:
        """Shut down an owned backend pool (no-op for shared backends)."""
        if not self._owns_pool:
            return
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "SZOps":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SZOps(block_size={self.config.block_size}, "
            f"n_threads={self.config.n_threads}, "
            f"backend={self.backend_name!r})"
        )
