"""Persisting experiment results to disk (results/*.md, EXPERIMENTS.md)."""

from __future__ import annotations

from pathlib import Path

from repro.harness.runner import ExperimentResult
from repro.harness.tables import render_table

__all__ = ["render_result", "save_result"]


def render_result(result: ExperimentResult) -> str:
    """Render one experiment as a markdown section."""
    parts = [render_table(result.headers, result.rows, title=result.title)]
    if result.notes:
        parts.append("")
        parts.extend(f"> {note}" for note in result.notes)
    return "\n".join(parts) + "\n"


def save_result(result: ExperimentResult, results_dir: str | Path = "results") -> Path:
    """Write ``results/<exp_id>.md`` and return the path."""
    out_dir = Path(results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result.exp_id}.md"
    path.write_text(render_result(result), encoding="utf-8")
    return path
