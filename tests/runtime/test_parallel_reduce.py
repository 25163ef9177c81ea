"""Chunked parallel reductions agree with their serial counterparts."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ops
from repro.parallel.executor import ChunkedExecutor
from repro.runtime import (
    lazy,
    parallel_maximum,
    parallel_mean,
    parallel_minimum,
    parallel_std,
    parallel_summary_statistics,
    parallel_variance,
)


@pytest.fixture
def stream(codec, smooth_1d):
    return codec.compress(smooth_1d, 1e-3)


@pytest.fixture
def plateau_stream(codec, plateau_field):
    return codec.compress(plateau_field, 1e-3)


@pytest.mark.parametrize("threads", [1, 2, 5])
class TestAgainstSerial:
    def test_mean_exact(self, stream, threads):
        assert parallel_mean(stream, threads) == ops.mean(stream)

    def test_min_max_exact(self, plateau_stream, threads):
        assert parallel_minimum(plateau_stream, threads) == ops.minimum(plateau_stream)
        assert parallel_maximum(plateau_stream, threads) == ops.maximum(plateau_stream)

    def test_variance_std_to_rounding(self, stream, threads):
        assert parallel_variance(stream, threads) == ops.variance(stream)
        assert parallel_std(stream, threads) == ops.std(stream)

    def test_summary_statistics(self, plateau_stream, threads):
        serial = ops.summary_statistics(plateau_stream)
        par = parallel_summary_statistics(plateau_stream, threads)
        assert par["mean"] == serial["mean"]
        assert par["variance"] == serial["variance"]
        assert par["std"] == serial["std"]


class TestExecutorHandling:
    def test_accepts_shared_executor(self, stream):
        with ChunkedExecutor(n_threads=3) as ex:
            assert parallel_mean(stream, ex) == ops.mean(stream)
            assert parallel_variance(stream, ex) == ops.variance(stream)

    def test_rejects_non_executor(self, stream):
        with pytest.raises(TypeError, match="executor"):
            parallel_mean(stream, "4")

    def test_ddof_guard(self, stream):
        with pytest.raises(ValueError, match="ddof"):
            parallel_variance(stream, 2, ddof=stream.n_elements)

    def test_lazy_reductions_route_through_executor(self, stream):
        chain = lazy(stream).negate().scalar_multiply(0.1)
        serial_mean = chain.mean()
        serial_var = chain.variance()
        with ChunkedExecutor(n_threads=4) as ex:
            assert chain.mean(executor=ex) == serial_mean
            assert chain.variance(executor=ex) == serial_var
        assert chain.mean(executor=2) == serial_mean

    def test_apply_chain_executor_kwarg(self, stream):
        steps = ["negation", "scalar_multiply=0.1", "mean"]
        assert ops.apply_chain(stream, steps, executor=2) == ops.apply_chain(
            stream, steps
        )


class TestConstantOnlyStream:
    def test_all_constant_field(self, codec):
        c = codec.compress(np.full(1024, 3.25, dtype=np.float32), 1e-3)
        assert parallel_mean(c, 2) == ops.mean(c)
        assert parallel_variance(c, 2) == ops.variance(c)
        assert parallel_minimum(c, 2) == ops.minimum(c)
        assert parallel_maximum(c, 2) == ops.maximum(c)
