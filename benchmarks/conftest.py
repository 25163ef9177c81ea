"""Shared fixtures for the benchmark suite.

Every experiment of the paper's evaluation section has one module here.
Its measurements are the cells of a registered run table
(:mod:`repro.harness.experiments.runtable`), executed once per session
through the experiment engine.  Workload sizes follow the environment
knobs documented in :mod:`repro.harness.config` (``REPRO_BENCH_SCALE``,
``REPRO_BENCH_FIELDS``, ``REPRO_BENCH_REPEATS``).

Each module contains pytest-benchmark micro-cases for its headline kernels
plus one ``test_*_report`` case that asserts the paper's shape on the
table's cell metrics; running a table writes ``results/<artifact>.md`` for
every artifact it renders.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import SZOps
from repro.baselines import make_codec
from repro.datasets import generate_fields
from repro.harness import config_from_env


@pytest.fixture(scope="session")
def bench_cfg():
    # Three fields per dataset unless REPRO_BENCH_FIELDS sets the count.
    return config_from_env(max_fields=int(os.environ.get("REPRO_BENCH_FIELDS", "3")))


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
def table_cells(bench_cfg, experiment_runs_root):
    """``table_cells(name, **kwargs)`` -> the table's cell documents.

    Each run table executes once per session through ``run_experiment``;
    every artifact it renders is copied from the run directory to
    ``results/<artifact>.md`` and echoed to stdout.
    """
    from repro.harness.experiments import get_table, run_experiment, table_artifacts

    results_dir = Path(__file__).resolve().parent.parent / "results"
    done: dict[str, list] = {}

    def run(name: str, **kwargs) -> list:
        if name not in done:
            result = run_experiment(
                get_table(name, **kwargs), bench_cfg, experiment_runs_root
            )
            results_dir.mkdir(exist_ok=True)
            for artifact in table_artifacts(name):
                text = (result.run_dir / f"{artifact}.md").read_text(encoding="utf-8")
                path = results_dir / f"{artifact}.md"
                path.write_text(text, encoding="utf-8")
                print(f"\n[saved {path}]\n{text}")
            done[name] = result.cells
        return done[name]

    return run


@pytest.fixture(scope="session")
def ops_matrix(bench_cfg, table_cells):
    """Figure 5/6 cell metrics: the ops-matrix table over every dataset."""
    cells = table_cells("ops-matrix", datasets=tuple(bench_cfg.datasets))
    return [cell["metrics"] for cell in cells]


@pytest.fixture(scope="session")
def szp_codec():
    return make_codec("SZp")


@pytest.fixture(scope="session")
def szp_blob(szp_codec, hurricane_field, bench_cfg):
    return szp_codec.compress(hurricane_field, bench_cfg.eps)
