"""Experiment E8 — ablation backing Section VI-B2's reduction-speed claim.

The paper states reduction throughput depends on the constant-block
fraction (Table V / Table VI): constant blocks are excluded from payload
decoding.  This ablation sweeps the plateau fraction of a synthetic field
and measures the mean-reduction kernel.
"""

from __future__ import annotations

import pytest

from repro import SZOps, ops
from repro.datasets.synthetic import FieldSpec, synthesize_field


@pytest.mark.parametrize("plateau", [0.0, 0.8])
def test_mean_kernel_vs_constant_fraction(benchmark, plateau, bench_cfg):
    spec = FieldSpec("sweep", beta=6.3, amplitude=0.03, plateau=plateau, noise=5e-5)
    arr = synthesize_field(spec, (64, 96, 96), seed=bench_cfg.seed)
    c = SZOps().compress(arr, bench_cfg.eps)
    benchmark.extra_info["const_frac"] = round(c.constant_fraction, 3)
    benchmark(ops.mean, c)


def test_ablation_constant_blocks_report(benchmark, table_cells):
    cells = benchmark.pedantic(
        table_cells, args=("ablation-constant-blocks",), rounds=1, iterations=1
    )
    rows = [c["metrics"] for c in cells]
    # constant fraction grows with the plateau sweep ...
    fractions = [m["constant_pct"] for m in rows]
    assert fractions == sorted(fractions)
    # ... and the most constant-heavy case reduces much faster than the least
    assert rows[-1]["mean_seconds"] < 0.7 * rows[0]["mean_seconds"]
