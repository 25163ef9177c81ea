"""Experiment harness: drivers, rendering, and result persistence."""

from repro.harness.config import BenchConfig, config_from_env
from repro.harness.records import render_result, save_result
from repro.harness.runner import (
    DEFAULT_SCALAR,
    ExperimentResult,
    OpMeasurement,
    ops_matrix_from_cells,
    prepare_fields,
    run_ablation_constant_blocks,
    run_ablation_format,
    run_figure5,
    run_figure6,
    run_table4,
    run_table6,
    run_table7,
)
from repro.harness.tables import render_table

__all__ = [
    "BenchConfig",
    "config_from_env",
    "render_result",
    "save_result",
    "render_table",
    "DEFAULT_SCALAR",
    "ExperimentResult",
    "OpMeasurement",
    "ops_matrix_from_cells",
    "prepare_fields",
    "run_table4",
    "run_figure5",
    "run_figure6",
    "run_table6",
    "run_table7",
    "run_ablation_format",
    "run_ablation_constant_blocks",
]
