"""Experiment E2 — Figure 5: time-cost breakdown, SZp stages vs SZOps total.

The paper's Figure 5 stacks SZp's decompress/operate/compress times against
the single SZOps kernel time for all seven operations on all four datasets,
annotating each SZOps bar with the percentage reduction.
"""

from __future__ import annotations

from repro import ops
from repro.workflow import run_traditional


def test_szp_full_workflow_negation(benchmark, szp_codec, szp_blob):
    """Micro-case: the traditional stack Figure 5 plots (orange+green+red)."""
    benchmark.pedantic(
        run_traditional, args=(szp_codec, szp_blob, "negation", None), rounds=2, iterations=1
    )


def test_szops_negation_kernel(benchmark, szops_blob):
    """Micro-case: the SZOps bar (blue) for the cheapest operation."""
    benchmark(ops.negate, szops_blob)


def test_szops_mean_kernel(benchmark, szops_blob):
    """Micro-case: the slowest SZOps kernel class (reductions)."""
    benchmark(ops.mean, szops_blob)


def test_figure5_report(ops_matrix):
    """Figure 5's data series from the ops-matrix run."""
    # Paper shape: the fully-compressed-space operations cut >90% of the
    # traditional time on every dataset.
    for m in ops_matrix:
        if m["op"] in ("negation", "scalar_add", "scalar_subtract"):
            assert m["reduction_pct"] > 80.0, (m["dataset"], m["op"], m["reduction_pct"])
    # SZOps is never slower than 1.3x the traditional path anywhere
    # (the paper notes reductions "might not always be faster").
    for m in ops_matrix:
        assert m["szops_kernel_seconds"] <= 1.3 * m["traditional_total_seconds"], (
            m["dataset"],
            m["op"],
        )
