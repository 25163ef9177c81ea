"""Shared fixtures for the benchmark suite.

Every experiment of the paper's evaluation section has one module here; the
drivers live in :mod:`repro.harness.runner`.  Workload sizes follow the
environment knobs documented in :mod:`repro.harness.config`
(``REPRO_BENCH_SCALE``, ``REPRO_BENCH_FIELDS``, ``REPRO_BENCH_REPEATS``).

Each module contains pytest-benchmark micro-cases for its headline kernels
plus one ``test_*_report`` case that regenerates the full table/figure,
prints it, and writes ``results/<exp>.md``.
"""

from __future__ import annotations

import pytest

from repro import SZOps
from repro.baselines import make_codec
from repro.datasets import generate_fields
from repro.harness import config_from_env


@pytest.fixture(scope="session")
def bench_cfg():
    return config_from_env(max_fields=3)


@pytest.fixture(scope="session")
def hurricane_field(bench_cfg):
    """One representative Hurricane field at the benchmark scale."""
    return generate_fields("Hurricane", scale=bench_cfg.scale, fields=["U"])["U"]


@pytest.fixture(scope="session")
def szops_codec():
    return SZOps()


@pytest.fixture(scope="session")
def szops_blob(szops_codec, hurricane_field, bench_cfg):
    return szops_codec.compress(hurricane_field, bench_cfg.eps)


@pytest.fixture(scope="session")
def experiment_runs_root(tmp_path_factory):
    """Artifact root + cross-run index shared by the engine-backed reports."""
    return tmp_path_factory.mktemp("experiment-runs")


@pytest.fixture(scope="session")
def ops_matrix(bench_cfg, experiment_runs_root):
    """Figure 5/6 measurement rows, via the experiment engine and its index.

    The ops-matrix run table executes once per session; the figures then
    read their cells back out of the SQLite index — the same store
    ``repro experiment run`` feeds — rather than re-measuring per module.
    """
    from repro.harness import ops_matrix_from_cells
    from repro.harness.experiments import (
        get_cells,
        get_table,
        latest_run_id,
        open_index,
        run_experiment,
    )

    index_path = experiment_runs_root / "experiments.db"
    table = get_table("ops-matrix", datasets=tuple(bench_cfg.datasets))
    run_experiment(table, bench_cfg, experiment_runs_root, index_path=index_path)
    conn = open_index(index_path)
    try:
        cells = get_cells(conn, latest_run_id(conn, "ops-matrix"))
    finally:
        conn.close()
    return ops_matrix_from_cells(cells)


@pytest.fixture(scope="session")
def szp_codec():
    return make_codec("SZp")


@pytest.fixture(scope="session")
def szp_blob(szp_codec, hurricane_field, bench_cfg):
    return szp_codec.compress(hurricane_field, bench_cfg.eps)


def emit(result, capsys=None):
    """Persist an ExperimentResult and echo it to stdout."""
    from repro.harness import render_result, save_result

    path = save_result(result)
    text = render_result(result)
    print(f"\n[saved {path}]\n{text}")
    return text
