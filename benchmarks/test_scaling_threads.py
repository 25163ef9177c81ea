"""Supplementary experiment: worker scaling of the execution backends.

The paper's CPU SZp runs on all 12 logical CPUs of its testbed; this
module checks that our chunked substrates behave sanely — parallel
compression must (a) produce bit-identical streams on every backend and
(b) scale with physical cores where cores exist (thread kernels release
the GIL inside NumPy packing; the process backend sidesteps the GIL
entirely via shared-memory chunk transport).

``test_parallel_backends_report`` runs the full backend × workers sweep
(compress with the QZ/LZ/BF stage split, decompress, backend-routed
mean/variance) through the experiment engine; its record is the run's
``report.json`` under the session's runs directory.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import SZOps
from repro.datasets import generate_fields
from repro.parallel.backends import available_backends


@pytest.fixture(scope="module")
def big_field(bench_cfg):
    return generate_fields("Miranda", scale=bench_cfg.scale, fields=["density"])["density"]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_compress_backend_scaling(benchmark, big_field, bench_cfg, backend, n_workers):
    codec = SZOps(n_threads=n_workers, backend=backend)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["n_workers"] = n_workers
    benchmark.extra_info["cpus"] = os.cpu_count()
    c = benchmark(codec.compress, big_field, bench_cfg.eps)
    codec.close()
    # identical output regardless of backend and worker count
    reference = SZOps(backend="serial").compress(big_field, bench_cfg.eps)
    assert c.to_bytes() == reference.to_bytes()


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("n_workers", [1, 4])
def test_decompress_backend_scaling(benchmark, big_field, bench_cfg, backend, n_workers):
    blob = SZOps(backend="serial").compress(big_field, bench_cfg.eps)
    codec = SZOps(n_threads=n_workers, backend=backend)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["n_workers"] = n_workers
    out = benchmark(codec.decompress, blob)
    codec.close()
    assert np.array_equal(out, SZOps(backend="serial").decompress(blob))


def test_parallel_backends_report(bench_cfg, experiment_runs_root):
    from repro.harness.experiments import (
        get_table,
        render_report_markdown,
        run_experiment,
    )

    table = get_table("parallel-backends", workers=(1, 2, 4, 8))
    result = run_experiment(
        table,
        bench_cfg,
        experiment_runs_root,
        index_path=experiment_runs_root / "experiments.db",
    )
    print(render_report_markdown(result.report))
    assert result.report["run"]["git_sha"]

    assert result.all_ok, "backends diverged — bit-identity broken"
    metrics = [cell["metrics"] for cell in result.cells]
    for m in metrics:
        assert m["stream_identical"] and m["reductions_identical"], m
        # Stage split must account for (most of) the compress wall time.
        stages = sum(m["compress_stage_seconds"].values())
        assert stages <= m["compress_seconds"] * 1.05
    cells = {(m["backend"], m["workers"]): m for m in metrics}
    # The ≥1.5x processes-vs-serial compression target only holds where
    # physical cores exist; single-core hosts measure pure overhead, and
    # the report records the host's CPU count so readers can judge.
    if (os.cpu_count() or 1) >= 4:
        speedup = (
            cells[("serial", 4)]["compress_seconds"]
            / cells[("processes", 4)]["compress_seconds"]
        )
        assert speedup >= 1.5, f"processes@4 only {speedup:.2f}x over serial"
