"""Cross-backend bit-identity: the contract every substrate must honor.

Serial, thread, and process execution share one chunking and one kernel
set, so compressed streams must be *byte-identical* and reductions
*float-identical* across backends — not merely close.  These tests pin
that down on the awkward geometries: ragged final blocks, all-constant
streams, and worker counts that do not divide the block count.  Every
reduction of every chain runs through one seam
(:func:`~repro.core.ops._partial.transformed_moments`), so a chain's
reductions must equal the inline ones on every backend, and a failing
guard must fail alike.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.compressor import SZOps
from repro.core.errors import OperationError
from repro.core.quantize import Q_LIMIT
from repro.parallel.backends import available_backends, get_backend
from repro.runtime import cache_disabled, lazy

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
                    view = lazy(c)
                    seen.append(
                        (
                            view.mean(executor=be),
                            view.variance(executor=be),
                            view.std(executor=be),
                            tuple(sorted(view.summary_statistics(executor=be).items())),
                        )
                    )
            assert seen[0] == seen[1] == seen[2], f"workers={workers}"

    def test_matches_eager_ops(self, fields):
        from repro.core import ops

        codec = SZOps(block_size=64)
        c = codec.compress(fields["smooth"], EPS)
        with get_backend("processes", 2) as be:
            assert lazy(c).mean(executor=be) == ops.mean(c)


#: Chains over every normal-form shape: a lone sign, multiplies by
#: ``s > 0``, ``s < 0`` and ``s = 0``, signs folded into a multiply, and a
#: trailing shift after the last multiply.
CHAINS = {
    "plain": [],
    "negate": [("negation", None)],
    "shift": [("scalar_add", 0.125)],
    "times-half": [("scalar_multiply", 0.5)],
    "times-negative": [("scalar_multiply", -0.75)],
    "times-zero": [("scalar_multiply", 0.0)],
    "negate-times-add": [
        ("negation", None),
        ("scalar_multiply", 2.5),
        ("scalar_add", 0.3),
    ],
    "times-subtract": [("scalar_multiply", 0.5), ("scalar_subtract", 1.25)],
    "add-times-negate": [
        ("scalar_add", 0.01),
        ("scalar_multiply", 1.5),
        ("negation", None),
    ],
}


def _chain(c, steps):
    view = lazy(c)
    for name, scalar in steps:
        view = view.apply(name, scalar)
    return view


def _reduce_all(view, executor=None):
    """Every reduction of ``view``, plus its summary statistics."""
    out = {
        r: getattr(view, r)(executor=executor)
        for r in ("mean", "variance", "std", "minimum", "maximum")
    }
    out["summary"] = view.summary_statistics(executor=executor)
    return out


def _error_of(fn):
    try:
        fn()
    except OperationError as exc:
        return str(exc)
    raise AssertionError("expected an OperationError")


class TestChainReductionIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_every_reduction_of_every_chain(self, fields, workers):
        codec = SZOps(block_size=64)
        streams = {name: codec.compress(arr, EPS) for name, arr in fields.items()}
        for backend in BACKENDS:
            with get_backend(backend, workers) as be:
                for field, c in streams.items():
                    for label, steps in CHAINS.items():
                        view = _chain(c, steps)
                        want = _reduce_all(view)
                        got = _reduce_all(view, be)
                        assert got == want, f"{backend}@{workers} {field}/{label}"

    @pytest.mark.parametrize(
        "steps",
        [
            [("scalar_multiply", 4.0)],
            [("negation", None), ("scalar_add", 2e6), ("scalar_multiply", 1.0)],
            [("scalar_multiply", 1.0), ("scalar_add", 2e6)],
            [("scalar_subtract", 2e6)],
        ],
        ids=["multiply", "shift-before-multiply", "trailing-shift", "shift-only"],
    )
    def test_failing_guard_raises_alike(self, steps):
        q = np.arange(-300, 300, dtype=np.int64)
        # One stored bin 2^20 below the range's edge (exact in float64):
        # x4 or a 2e6-bin shift takes it past Q_LIMIT, x1 does not.
        q[-70] = int(Q_LIMIT) - 2**20
        c = SZOps(block_size=64).encode_quantized(q, q.shape, np.dtype(np.float64), 0.5)
        view = _chain(c, steps)
        want = _error_of(view.mean)
        assert "overflows the quantized integer range" in want
        for backend in BACKENDS:
            with get_backend(backend, 2) as be:
                for r in ("mean", "minimum", "summary_statistics"):
                    got = _error_of(lambda: getattr(view, r)(executor=be))
                    assert got == want, f"{backend} {r}"


def test_chunked_chain_builds_no_transformed_plane():
    """A chunked multiply-chain mean costs no more memory than the inline one."""
    walk = np.cumsum(np.random.default_rng(7).normal(size=1_600_000))
    c = SZOps().compress(walk.astype(np.float32), 1e-3)
    view = lazy(c).scalar_multiply(0.5)

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with cache_disabled(), get_backend("serial", 2) as be:
        inline = peak(view.mean)
        chunked = peak(lambda: view.mean(executor=be))
        assert view.mean(executor=be) == view.mean()
    assert chunked <= inline + (1 << 20), (inline, chunked)
