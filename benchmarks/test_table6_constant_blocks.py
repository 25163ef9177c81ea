"""Experiment E4 — Table VI: constant vs total blocks per dataset.

The paper counts quantization-constant blocks at eps 1e-2 per dataset;
these blocks are what the reduction and multiplication kernels skip.
"""

from __future__ import annotations

from repro import SZOps
from repro.datasets import generate_fields


def test_constant_block_detection_kernel(benchmark, bench_cfg):
    """Micro-case: compression of the most constant-heavy field (QC)."""
    qc = generate_fields("SCALE-LETKF", scale=bench_cfg.scale, fields=["QC"])["QC"]
    codec = SZOps()
    c = benchmark(codec.compress, qc, 1e-2, "rel")
    assert c.constant_fraction > 0.2


def test_table6_report(benchmark, bench_cfg, table_cells):
    """Run the table6 table and persist results/table6.md."""
    cells = benchmark.pedantic(
        table_cells,
        args=("table6",),
        kwargs={"datasets": tuple(bench_cfg.datasets)},
        rounds=1,
        iterations=1,
    )
    pct = {c["metrics"]["dataset"]: c["metrics"]["constant_pct"] for c in cells}
    # Orderings we reproduce (see EXPERIMENTS.md for the SCALE deviation):
    assert pct["CESM-ATM"] == min(pct[d] for d in ("Hurricane", "CESM-ATM", "Miranda"))
    assert pct["SCALE-LETKF"] == max(pct.values())
    for value in pct.values():
        assert 0 < value < 100
