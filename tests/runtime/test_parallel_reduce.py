"""Chunked reductions (``lazy(c).<r>(executor=be)``) agree with the inline ones."""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest

from repro import ops
from repro.parallel.backends import available_backends, get_backend
from repro.runtime import lazy

WORKER_COUNTS = (1, 2, 5)


@pytest.fixture(scope="module")
def pools():
    """Every backend at every worker count, shared by the module."""
    with ExitStack() as stack:
        yield {
            n: [
                stack.enter_context(get_backend(name, n))
                for name in available_backends()
            ]
            for n in WORKER_COUNTS
        }


@pytest.fixture
def stream(codec, smooth_1d):
    return codec.compress(smooth_1d, 1e-3)


@pytest.fixture
def plateau_stream(codec, plateau_field):
    return codec.compress(plateau_field, 1e-3)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
class TestAgainstSerial:
    def test_mean_exact(self, stream, pools, n_workers):
        for be in pools[n_workers]:
            assert lazy(stream).mean(executor=be) == ops.mean(stream), be.name

    def test_min_max_exact(self, plateau_stream, pools, n_workers):
        for be in pools[n_workers]:
            chain = lazy(plateau_stream)
            assert chain.minimum(executor=be) == ops.minimum(plateau_stream)
            assert chain.maximum(executor=be) == ops.maximum(plateau_stream)

    def test_variance_std_to_rounding(self, stream, pools, n_workers):
        for be in pools[n_workers]:
            assert lazy(stream).variance(executor=be) == ops.variance(stream), be.name
            assert lazy(stream).std(executor=be) == ops.std(stream), be.name

    def test_summary_statistics(self, plateau_stream, pools, n_workers):
        serial = ops.summary_statistics(plateau_stream)
        for be in pools[n_workers]:
            got = lazy(plateau_stream).summary_statistics(executor=be)
            assert got == serial, be.name


class TestExecutorHandling:
    def test_accepts_shared_executor(self, stream):
        with get_backend("threads", 3) as be:
            assert lazy(stream).mean(executor=be) == ops.mean(stream)
            assert lazy(stream).variance(executor=be) == ops.variance(stream)

    def test_none_sums_inline(self, stream):
        assert lazy(stream).mean(executor=None) == ops.mean(stream)
        assert lazy(stream).variance(executor=None) == ops.variance(stream)

    def test_rejects_non_executor(self, stream):
        for bad in ("4", 4):
            with pytest.raises(TypeError, match="executor"):
                lazy(stream).mean(executor=bad)

    def test_ddof_guard(self, stream, pools):
        with pytest.raises(ValueError, match="ddof"):
            lazy(stream).variance(ddof=stream.n_elements, executor=pools[2][0])

    def test_lazy_reductions_route_through_executor(self, stream, pools):
        chain = lazy(stream).negate().scalar_multiply(0.1)
        serial_mean = chain.mean()
        serial_var = chain.variance()
        for be in pools[2]:
            assert chain.mean(executor=be) == serial_mean, be.name
            assert chain.variance(executor=be) == serial_var, be.name

    def test_apply_chain_executor_kwarg(self, stream, pools):
        steps = ["negation", "scalar_multiply=0.1", "mean"]
        want = ops.apply_chain(stream, steps)
        for be in pools[2]:
            assert ops.apply_chain(stream, steps, executor=be) == want, be.name


class TestConstantOnlyStream:
    def test_all_constant_field(self, codec, pools):
        c = codec.compress(np.full(1024, 3.25, dtype=np.float32), 1e-3)
        for be in pools[2]:
            assert lazy(c).mean(executor=be) == ops.mean(c)
            assert lazy(c).variance(executor=be) == ops.variance(c)
            assert lazy(c).minimum(executor=be) == ops.minimum(c)
            assert lazy(c).maximum(executor=be) == ops.maximum(c)
