"""Benchmark configuration, overridable through the environment.

The paper's full workloads (1.25-4.9 GB per dataset) are impractical for a
pure-Python reproduction, so the harness runs the same experiments on the
catalog's scaled-down default grids.  Three knobs rescale the work:

``REPRO_BENCH_SCALE``
    Linear per-axis scale factor on the working shapes (default 1.0, i.e.
    the catalog defaults of roughly 0.2-0.6 M elements per field).
``REPRO_BENCH_FIELDS``
    Max fields per dataset (default 4; 0 = all fields).  The slowest
    baselines (Huffman decode) dominate the runtime, so this bounds it.
``REPRO_BENCH_REPEATS``
    Timing repetitions per cell, best-of (default 1 for the full tables;
    the pytest-benchmark micro-cases do their own statistics).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["BenchConfig", "config_from_env"]


@dataclass(frozen=True)
class BenchConfig:
    eps: float = 1e-4
    scale: float = 1.0
    max_fields: int = 4
    repeats: int = 1
    datasets: tuple[str, ...] = ("Hurricane", "CESM-ATM", "SCALE-LETKF", "Miranda")
    results_dir: str = "results"
    seed: int = 20240624

    def limit_fields(self, names: list[str]) -> list[str]:
        if self.max_fields <= 0:
            return names
        return names[: self.max_fields]


def config_from_env(**overrides) -> BenchConfig:
    """Build a :class:`BenchConfig` from the environment plus overrides."""
    kwargs = dict(
        scale=float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
        max_fields=int(os.environ.get("REPRO_BENCH_FIELDS", "4")),
        repeats=int(os.environ.get("REPRO_BENCH_REPEATS", "1")),
    )
    kwargs.update(overrides)
    return BenchConfig(**kwargs)
