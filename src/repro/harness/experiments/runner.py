"""Run orchestration: expand -> execute (with resume) -> persist -> index.

:func:`run_experiment` is the one entry point ``experiment run``, the
``bench-*`` commands and the benchmark suite share.  The flow:

1. expand the table to its deterministic cell list;
2. create the artifact directory (or adopt an existing one when
   resuming) and write ``manifest.json`` / ``environment.json`` up
   front;
3. execute every cell that has no completed artifact yet, writing each
   cell's raw JSON as soon as it finishes — a crash loses at most the
   in-flight cell;
4. render ``report.json`` + ``report.md`` into the run directory;
5. append the run to the cross-run SQLite index (if one was given).

``execute`` is injectable so the property-based suite can drive the
resume/skip logic with a stub instead of real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.harness.config import BenchConfig
from repro.harness.experiments import index as index_mod
from repro.harness.experiments.artifacts import RunDir
from repro.harness.experiments.executor import ExecutionContext, execute_cell
from repro.harness.experiments.report import build_report, render_report_markdown
from repro.harness.experiments.runtable import Cell, RunTable

__all__ = ["RunResult", "run_experiment"]


@dataclass
class RunResult:
    """Everything a caller needs after :func:`run_experiment` returns."""

    run_id: str
    run_dir: Path
    manifest: dict[str, Any]
    cells: list[dict[str, Any]]  # cell documents (artifact shape)
    report: dict[str, Any]
    executed: int  # cells actually run (vs resumed from disk)
    resumed: int

    @property
    def all_ok(self) -> bool:
        return bool(self.cells) and all(c["ok"] for c in self.cells)


def run_experiment(
    table: RunTable,
    cfg: BenchConfig,
    out_root: str | Path,
    index_path: str | Path | None = None,
    resume: str | Path | None = None,
    execute: Callable[[Cell, RunTable, BenchConfig, ExecutionContext], dict[str, Any]]
    | None = None,
    progress: Callable[[str], None] | None = None,
) -> RunResult:
    """Execute a run table end to end (see the module docstring)."""
    say = progress or (lambda _msg: None)
    execute = execute or execute_cell

    if resume is not None:
        run_dir = RunDir(resume)
        manifest = run_dir.manifest()
        stored = RunTable.from_json(manifest["table"])
        if stored.config_hash(cfg) != manifest["config_hash"]:
            raise ValueError(
                f"cannot resume {run_dir.path}: its config hash "
                f"{manifest['config_hash'][:12]} does not match the requested "
                "table/config (the run would mix incompatible measurements)"
            )
        table = stored
    else:
        run_dir = RunDir.create(out_root, table, cfg)
        manifest = run_dir.manifest()

    cells = table.expand()
    done = run_dir.completed_cells()
    say(
        f"run {run_dir.run_id}: {len(cells)} cell(s), "
        f"{len(done)} already complete"
    )

    ctx = ExecutionContext(cfg)
    documents: list[dict[str, Any]] = []
    executed = resumed = 0
    for cell in cells:
        prior = done.get(cell.cell_id)
        if prior is not None:
            documents.append(prior)
            resumed += 1
            continue
        say(f"  executing {cell.label()}")
        metrics = execute(cell, table, cfg, ctx)
        ok = bool(metrics.get("ok", True))
        run_dir.write_cell(cell, metrics, ok)
        documents.append(
            {
                "schema_version": manifest["schema_version"],
                "cell_index": cell.index,
                "cell_id": cell.cell_id,
                "workload": cell.workload,
                "factors": dict(cell.factors),
                "ok": ok,
                "metrics": metrics,
            }
        )
        executed += 1

    report = build_report(manifest, documents)
    run_dir.write_report(report, render_report_markdown(report))

    if index_path is not None:
        conn = index_mod.open_index(index_path, create=True)
        try:
            index_mod.append_run(conn, manifest, documents)
        finally:
            conn.close()
        say(f"  indexed {run_dir.run_id} -> {index_path}")

    return RunResult(
        run_id=run_dir.run_id,
        run_dir=run_dir.path,
        manifest=manifest,
        cells=documents,
        report=report,
        executed=executed,
        resumed=resumed,
    )
