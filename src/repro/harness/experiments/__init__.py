"""``repro.harness.experiments``: the factorial experiment engine.

The perf substrate every speed PR reports through (see
docs/EXPERIMENTS.md):

* :mod:`~repro.harness.experiments.runtable` — declarative factorial run
  tables with deterministic expansion and content-addressed cells;
* :mod:`~repro.harness.experiments.executor` — cell execution through
  the real ``SZOps`` / ``runtime`` / ``parallel`` / ``service`` /
  ``cluster`` layers: the one implementation of every timed workload;
* :mod:`~repro.harness.experiments.artifacts` — per-run artifact
  directories (manifest, environment capture, raw cell JSON);
* :mod:`~repro.harness.experiments.index` — the cross-run SQLite index;
* :mod:`~repro.harness.experiments.report` — ``report.json`` / markdown
  rendering with repetition-based confidence intervals;
* :mod:`~repro.harness.experiments.compare` — the regression gate
  (identity hard-fails, CPU-count-gated timing);
* :mod:`~repro.harness.experiments.runner` — orchestration with
  crash-safe resume.
"""

from repro.harness.experiments.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    RunDir,
    git_sha,
    host_info,
)
from repro.harness.experiments.compare import (
    CompareResult,
    MIN_CPUS_FOR_TIMING_GATE,
    compare_cells,
    compare_runs,
)
from repro.harness.experiments.executor import (
    WORKLOADS,
    ExecutionContext,
    chain_for_depth,
    execute_cell,
)
from repro.harness.experiments.index import (
    INDEX_SCHEMA_VERSION,
    ExperimentIndexError,
    append_run,
    get_cells,
    get_run,
    latest_run_id,
    list_runs,
    open_index,
)
from repro.harness.experiments.report import (
    REPORT_SCHEMA_VERSION,
    build_report,
    confidence_interval,
    render_report_json,
    render_report_markdown,
    report_from_index,
)
from repro.harness.experiments.runner import RunResult, run_experiment
from repro.harness.experiments.runtable import (
    PREDEFINED_TABLES,
    Cell,
    RunTable,
    canonical_json,
    get_table,
    table_names,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "INDEX_SCHEMA_VERSION",
    "MIN_CPUS_FOR_TIMING_GATE",
    "PREDEFINED_TABLES",
    "REPORT_SCHEMA_VERSION",
    "Cell",
    "CompareResult",
    "ExecutionContext",
    "ExperimentIndexError",
    "RunDir",
    "RunResult",
    "RunTable",
    "WORKLOADS",
    "append_run",
    "build_report",
    "canonical_json",
    "chain_for_depth",
    "compare_cells",
    "compare_runs",
    "confidence_interval",
    "execute_cell",
    "get_cells",
    "get_run",
    "get_table",
    "git_sha",
    "host_info",
    "latest_run_id",
    "list_runs",
    "open_index",
    "render_report_json",
    "render_report_markdown",
    "report_from_index",
    "run_experiment",
    "table_names",
]
