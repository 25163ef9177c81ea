"""Experiment harness: bench configuration, table rendering, and the engine.

Every measurement runs through :mod:`repro.harness.experiments`.
"""

from repro.harness.config import BenchConfig, config_from_env
from repro.harness.tables import render_table

__all__ = ["BenchConfig", "config_from_env", "render_table"]
