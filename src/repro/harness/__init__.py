"""Experiment harness: drivers, rendering, and result persistence."""

from repro.harness.config import BenchConfig, config_from_env
from repro.harness.records import (
    BENCH_SCHEMA_VERSION,
    load_bench_json,
    render_result,
    save_bench_json,
    save_result,
)
from repro.harness.runner import (
    DEFAULT_SCALAR,
    ExperimentResult,
    OpMeasurement,
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
    "BENCH_SCHEMA_VERSION",
    "BenchConfig",
    "config_from_env",
    "load_bench_json",
    "render_result",
    "save_result",
    "save_bench_json",
    "render_table",
    "DEFAULT_SCALAR",
    "ExperimentResult",
    "OpMeasurement",
    "prepare_fields",
    "run_table4",
    "run_figure5",
    "run_figure6",
    "run_table6",
    "run_table7",
    "run_ablation_format",
    "run_ablation_constant_blocks",
]
