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
from repro.core.config import SZOpsConfig, resolve_error_bound
from repro.core.encode import (
    block_widths,
    decode_block_sections,
    encode_block_sections,
)
from repro.core.format import SZOpsCompressed
from repro.core.lorenzo import lorenzo_forward, lorenzo_inverse
from repro.core.quantize import dequantize, quantize
from repro.parallel import kernels
from repro.parallel.backends import ExecutionBackend, get_backend
from repro.parallel.partition import BlockChunk, block_chunks

__all__ = ["SZOps"]


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
    # pass, same as ChunkedExecutor): every mutation of these attributes
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

        ``timings``, when given, accumulates per-stage wall time under the
        keys ``"quantize_s"`` (QZ), ``"lorenzo_s"`` (LZ) and ``"encode_s"``
        (BF) — the Figure 5-style breakdown the parallel benchmark uses to
        attribute backend wins.
        """
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            raise TypeError(f"SZOps compresses floating-point data, got {arr.dtype}")
        flat = np.ascontiguousarray(arr, dtype=arr.dtype).reshape(-1)
        if flat.size == 0:
            raise ValueError("cannot compress an empty array")
        value_range = float(flat.max() - flat.min()) if mode == "rel" else 0.0
        eps = resolve_error_bound(error_bound, mode, value_range)
        t0 = perf_counter()
        q = quantize(flat, eps)
        if timings is not None:
            timings["quantize_s"] = timings.get("quantize_s", 0.0) + (
                perf_counter() - t0
            )
        return self.encode_quantized(q, arr.shape, arr.dtype, eps, timings=timings)

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

        Exposed because scalar multiplication re-enters the pipeline at this
        stage (it never touches inverse quantization, Table II's note).
        """
        layout = BlockLayout(q.size, self.config.block_size)
        lens = layout.lengths()
        t0 = perf_counter()
        deltas, outliers = lorenzo_forward(q, layout)
        signs = (deltas < 0).view(np.uint8)
        mags_i = np.abs(deltas)
        widths = block_widths(mags_i.view(np.uint64), lens)
        if int(widths.max(initial=0)) <= 32:
            # Narrow magnitudes: every block width fits uint32, so the BF
            # stage gathers half the bytes and the wordpack kernel merges
            # in uint32 lanes end to end (same bit stream either way).
            mags = mags_i.astype(np.uint32)
        else:
            mags = mags_i.view(np.uint64)
        if timings is not None:
            timings["lorenzo_s"] = timings.get("lorenzo_s", 0.0) + (
                perf_counter() - t0
            )

        t0 = perf_counter()
        chunks = self._chunks(q.size)
        if len(chunks) == 1:
            sign_bytes, payload_bytes = encode_block_sections(
                mags, signs, widths, lens, kernel=self.config.bitpack_kernel
            )
        else:
            sign_bytes, payload_bytes = self._encode_chunked(
                mags, signs, widths, lens, chunks
            )
        if timings is not None:
            timings["encode_s"] = timings.get("encode_s", 0.0) + (
                perf_counter() - t0
            )

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
