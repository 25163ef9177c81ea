"""Cross-backend bit-identity: the contract every substrate must honor.

Serial, thread, and process execution share one chunking and one kernel
set, so compressed streams must be *byte-identical* and reductions
*float-identical* across backends — not merely close.  These tests pin
that down on the awkward geometries: ragged final blocks, all-constant
streams, and worker counts that do not divide the block count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compressor import SZOps
from repro.parallel.backends import available_backends, get_backend
from repro.runtime.reduce import (
    parallel_mean,
    parallel_std,
    parallel_summary_statistics,
    parallel_variance,
)

EPS = 1e-4

BACKENDS = available_backends()
WORKER_COUNTS = (1, 2, 3, 4)


def _fields(rng) -> dict[str, np.ndarray]:
    smooth = np.cumsum(rng.normal(scale=5e-3, size=6_000)).astype(np.float32)
    ragged = smooth[:5_987].copy()  # final block is partial (5987 % 64 != 0)
    plateau = np.full(4_096, 0.25, dtype=np.float32)  # every block constant
    mixed = smooth.copy()
    mixed[1_000:3_000] = -1.5  # constant run inside a varying field
    return {"smooth": smooth, "ragged": ragged, "constant": plateau, "mixed": mixed}


@pytest.fixture(scope="module")
def fields() -> dict[str, np.ndarray]:
    return _fields(np.random.default_rng(20240624))


@pytest.fixture(scope="module")
def reference(fields) -> dict[str, bytes]:
    codec = SZOps(block_size=64, n_threads=1, backend="serial")
    return {name: codec.compress(arr, EPS).to_bytes() for name, arr in fields.items()}


class TestStreamIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_streams_byte_identical(self, fields, reference, backend, workers):
        with SZOps(block_size=64, n_threads=workers, backend=backend) as codec:
            for name, arr in fields.items():
                assert codec.compress(arr, EPS).to_bytes() == reference[name], (
                    f"{backend}@{workers} diverged on {name}"
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_decode_matches_serial(self, fields, backend):
        serial = SZOps(block_size=64, n_threads=1, backend="serial")
        with SZOps(block_size=64, n_threads=3, backend=backend) as codec:
            for arr in fields.values():
                c = serial.compress(arr, EPS)
                np.testing.assert_array_equal(
                    codec.decompress(c), serial.decompress(c)
                )

    def test_section_bytes_identical(self, fields, reference):
        # Not just the container: the individual sign/payload sections must
        # land at identical offsets (the concatenation-by-construction
        # property of block-aligned chunks).
        from repro.core.format import SZOpsCompressed

        with SZOps(block_size=64, n_threads=4, backend="processes") as codec:
            c = codec.compress(fields["ragged"], EPS)
        ref = SZOpsCompressed.from_bytes(reference["ragged"])
        np.testing.assert_array_equal(c.sign_bytes, ref.sign_bytes)
        np.testing.assert_array_equal(c.payload_bytes, ref.payload_bytes)
        np.testing.assert_array_equal(c.widths, ref.widths)


class TestKernelBackendIdentity:
    """Every (bitpack kernel x backend) cell must emit the reference bytes.

    This is the unconditional half of the CI perf gate: kernels are
    interchangeable only because this matrix pins byte equality on the
    awkward geometries, across every execution substrate.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", ("auto", "bitarray", "wordpack", "numba"))
    def test_streams_byte_identical_per_kernel(
        self, fields, reference, backend, kernel
    ):
        from repro.core.config import SZOpsConfig

        cfg = SZOpsConfig(
            block_size=64, n_threads=2, backend=backend, bitpack_kernel=kernel
        )
        with SZOps(config=cfg) as codec:
            for name, arr in fields.items():
                c = codec.compress(arr, EPS)
                assert c.to_bytes() == reference[name], (
                    f"{kernel}x{backend} diverged on {name}"
                )
                np.testing.assert_array_equal(
                    codec.decompress(c),
                    SZOps(block_size=64).decompress(c),
                )


class TestReductionIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_reductions_float_identical(self, fields, workers):
        codec = SZOps(block_size=64)
        for arr in fields.values():
            c = codec.compress(arr, EPS)
            seen = []
            for backend in BACKENDS:
                with get_backend(backend, workers) as be:
                    seen.append(
                        (
                            parallel_mean(c, be),
                            parallel_variance(c, be),
                            parallel_std(c, be),
                            tuple(sorted(parallel_summary_statistics(c, be).items())),
                        )
                    )
            assert seen[0] == seen[1] == seen[2], f"workers={workers}"

    def test_matches_eager_ops(self, fields):
        from repro.core import ops

        codec = SZOps(block_size=64)
        c = codec.compress(fields["smooth"], EPS)
        with get_backend("processes", 2) as be:
            assert parallel_mean(c, be) == ops.mean(c)
