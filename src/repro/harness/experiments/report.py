"""Report rendering: ``report.json`` + markdown from a run's cells.

Output is **byte-stable** for a given run: the JSON document is rendered
with sorted keys and fixed indentation, floats are rounded to a fixed
number of significant digits before serialization, and the markdown is a
pure function of the JSON document.  The golden-file test suite pins
this — a rendering change must bump :data:`REPORT_SCHEMA_VERSION` and
regenerate the goldens, never drift silently.

:func:`render_artifact` renders the paper's tables and figures
(``results/<artifact>.md``) from the same cell documents, one
:data:`~repro.harness.experiments.runtable.ARTIFACTS` spec each.

Each cell entry carries the cell's full metrics document (what the
executor recorded, floats rounded like the rest of the report), so the
report is the one machine-readable record of a run: CI checks and the
benchmark suite read ``cells[i]["metrics"]`` and ``summary``.  On top of
that, timing statistics are repetition-based: every ``*_seconds_reps``
sample list becomes ``{mean, best, ci95, n}``, where ``ci95`` is the
half-width of the 95% confidence interval on the mean (Student's t for
small n).
"""

from __future__ import annotations

import json
import math
import sqlite3
from typing import Any, Mapping

from repro.harness.experiments import index as index_mod
from repro.harness.experiments.runtable import ARTIFACTS
from repro.harness.tables import render_table

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "confidence_interval",
    "render_artifact",
    "render_report_json",
    "render_report_markdown",
    "report_from_index",
]

REPORT_SCHEMA_VERSION = 2

#: Two-sided 95% Student-t critical values for 1..30 degrees of freedom
#: (normal 1.96 beyond).  A static table keeps the report a deterministic
#: pure function of its inputs with no scipy version sensitivity.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def confidence_interval(samples: list[float]) -> dict[str, Any]:
    """Repetition statistics: mean, best, 95% CI half-width, sample count."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "mean": 0.0, "best": 0.0, "ci95": 0.0}
    mean = sum(samples) / n
    if n == 1:
        return {"n": 1, "mean": mean, "best": samples[0], "ci95": 0.0}
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    t = _T95[n - 2] if n - 1 <= len(_T95) else 1.96
    return {
        "n": n,
        "mean": mean,
        "best": min(samples),
        "ci95": t * math.sqrt(var / n),
    }


def _round_floats(obj: Any, digits: int = 9) -> Any:
    """Round every float to ``digits`` significant digits (byte stability)."""
    if isinstance(obj, float):
        if obj == 0.0 or not math.isfinite(obj):
            return obj
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _cell_entry(cell: Mapping[str, Any]) -> dict[str, Any]:
    metrics = cell["metrics"]
    timing: dict[str, Any] = {}
    for key, value in metrics.items():
        if key.endswith("_seconds_reps") and isinstance(value, list):
            timing[key[: -len("_seconds_reps")]] = confidence_interval(
                [float(v) for v in value]
            )
    entry: dict[str, Any] = {
        "cell_index": cell["cell_index"],
        "cell_id": cell["cell_id"],
        "factors": dict(cell["factors"]),
        "ok": bool(cell["ok"]),
        "timing": timing,
        "metrics": metrics,
    }
    stages = metrics.get("compress_stage_seconds")
    if isinstance(stages, dict):
        total = sum(stages.values())
        entry["stage_breakdown"] = {
            "seconds": dict(stages),
            "fraction": {
                k: (v / total if total > 0 else 0.0) for k, v in stages.items()
            },
        }
    return entry


def build_report(
    manifest: Mapping[str, Any], cells: list[Mapping[str, Any]]
) -> dict[str, Any]:
    """Assemble the ``report.json`` document for one run."""
    entries = [_cell_entry(c) for c in cells]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "run": {
            "run_id": manifest["run_id"],
            "table": manifest["table"]["name"]
            if isinstance(manifest.get("table"), dict)
            else manifest.get("table_name"),
            "workload": manifest["table"]["workload"]
            if isinstance(manifest.get("table"), dict)
            else manifest.get("workload"),
            "config_hash": manifest["config_hash"],
            "git_sha": manifest["git_sha"],
            "created_utc": manifest["created_utc"],
            "host": dict(manifest["host"]),
            "n_cells": manifest["n_cells"],
        },
        "summary": {
            "n_cells": len(entries),
            "n_ok": sum(1 for e in entries if e["ok"]),
            "all_ok": all(e["ok"] for e in entries) if entries else False,
        },
        "cells": entries,
    }
    return _round_floats(report)


def render_report_json(report: Mapping[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _fmt_ci(stat: Mapping[str, Any]) -> str:
    return f"{1e3 * stat['mean']:.3f} ±{1e3 * stat['ci95']:.3f}"


def render_report_markdown(report: Mapping[str, Any]) -> str:
    """A human-readable rendering of :func:`build_report`'s document."""
    run = report["run"]
    lines = [
        f"# Experiment report: {run['table']} ({run['run_id']})",
        "",
        f"- workload: `{run['workload']}`",
        f"- git SHA: `{run['git_sha']}`",
        f"- config hash: `{run['config_hash']}`",
        f"- created: {run['created_utc']}",
        f"- host: {run['host'].get('platform', 'unknown')}, "
        f"{run['host'].get('cpu_count', '?')} CPU(s)",
        f"- cells: {report['summary']['n_ok']}/{report['summary']['n_cells']} ok"
        + ("" if report["summary"]["all_ok"] else "  **<-- FAILURES**"),
        "",
    ]

    timing_keys: list[str] = sorted(
        {k for e in report["cells"] for k in e["timing"]}
    )
    # Sorted so the rendering is identical whether cells were loaded from
    # an artifact directory (declaration order) or the index (sorted JSON).
    factor_keys: list[str] = sorted(
        report["cells"][0]["factors"] if report["cells"] else []
    )
    headers = (
        ["cell"]
        + factor_keys
        + [f"{k} ms (mean ±ci95)" for k in timing_keys]
        + ["ok"]
    )
    rows = []
    for e in report["cells"]:
        row: list[Any] = [e["cell_index"]]
        row += [str(e["factors"].get(k, "")) for k in factor_keys]
        for k in timing_keys:
            stat = e["timing"].get(k)
            row.append(_fmt_ci(stat) if stat else "-")
        row.append("yes" if e["ok"] else "NO")
        rows.append(row)
    lines.append(render_table(headers, rows, title="Cells"))
    lines.append("")

    staged = [e for e in report["cells"] if "stage_breakdown" in e]
    if staged:
        srows = []
        for e in staged:
            frac = e["stage_breakdown"]["fraction"]
            secs = e["stage_breakdown"]["seconds"]
            srows.append(
                [
                    e["cell_index"],
                    *(f"{1e3 * secs.get(s, 0.0):.3f}" for s in ("QZ", "LZ", "BF")),
                    *(f"{100 * frac.get(s, 0.0):.1f}%" for s in ("QZ", "LZ", "BF")),
                ]
            )
        lines.append(
            render_table(
                ["cell", "QZ ms", "LZ ms", "BF ms", "QZ %", "LZ %", "BF %"],
                srows,
                title="Compress stage breakdown (QZ/LZ/BF)",
            )
        )
        lines.append("")
    return "\n".join(lines)


def report_from_index(
    conn: sqlite3.Connection, run_id: str | None = None
) -> tuple[dict[str, Any], str]:
    """(report document, markdown) for a run stored in the index."""
    rid = run_id or index_mod.latest_run_id(conn)
    run = index_mod.get_run(conn, rid)
    cells = index_mod.get_cells(conn, rid)
    report = build_report(run, cells)
    return report, render_report_markdown(report)


def render_artifact(name: str, cells: list[Mapping[str, Any]]) -> str:
    """Markdown for one paper artifact from its run table's cell documents."""
    spec = ARTIFACTS[name]
    metrics = [cell["metrics"] for cell in cells]
    key_headers = [header for header, _ in spec.rows]

    def row_key(m: Mapping[str, Any]) -> list[Any]:
        return [m[key] for _, key in spec.rows]

    if spec.pivot is None:
        headers = key_headers + [header for header, _ in spec.values]
        rows = [row_key(m) + [m[key] for _, key in spec.values] for m in metrics]
    else:
        value_key = spec.values[0][1]
        columns = list(dict.fromkeys(m[spec.pivot] for m in metrics))
        merged: dict[tuple[Any, ...], dict[Any, Any]] = {}
        for m in metrics:
            merged.setdefault(tuple(row_key(m)), {})[m[spec.pivot]] = m[value_key]
        headers = key_headers + [str(c) for c in columns]
        rows = [
            [*key, *(by_column[c] for c in columns)]
            for key, by_column in merged.items()
        ]
    parts = [render_table(headers, rows, title=spec.title)]
    if spec.notes:
        parts.append("")
        parts.extend(f"> {note}" for note in spec.notes)
    return "\n".join(parts) + "\n"
