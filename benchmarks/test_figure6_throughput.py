"""Experiment E3 — Figure 6: SZOps kernel vs SZp end-to-end throughput.

The paper plots GB/s for every operation and dataset with the speedup ratio
above each SZOps bar (2x up to >206x), and Table V explains why: no
decompression for negation/add/sub, partial decompression + constant blocks
for multiplication, constant blocks + integer ops for the reductions.
"""

from __future__ import annotations

import pytest

from repro import ops
from repro.core.ops.dispatch import OPERATIONS
from repro.harness.experiments import DEFAULT_SCALAR
from repro.runtime import cache_disabled


@pytest.mark.parametrize(
    "op", ["negation", "scalar_add", "scalar_multiply", "mean", "variance"]
)
def test_szops_kernel_throughput(benchmark, szops_blob, op):
    """Micro-cases: each SZOps kernel in isolation (the navy bars).

    Cold, as in the paper: with the decoded-block cache on, every round
    after the first would read back the view the first one decoded.
    """
    scalar = DEFAULT_SCALAR if OPERATIONS[op].needs_scalar else None
    benchmark.extra_info["bytes"] = szops_blob.original_nbytes
    args = (szops_blob,) if scalar is None else (szops_blob, scalar)
    with cache_disabled():
        benchmark(OPERATIONS[op].fn, *args)


def test_figure6_report(ops_matrix):
    """Figure 6's data series from the ops-matrix run."""
    # Table V assertions (E6): speedups group by operating space.
    by_op: dict[str, list[float]] = {}
    for m in ops_matrix:
        by_op.setdefault(m["op"], []).append(m["speedup"])
    mean = lambda xs: sum(xs) / len(xs)
    # fully compressed space >> everything else
    assert mean(by_op["negation"]) > 10
    assert mean(by_op["scalar_add"]) > 10
    assert mean(by_op["scalar_subtract"]) > 10
    # partial-space ops beat or match the traditional workflow on average
    for op in ("scalar_multiply", "mean", "variance", "std"):
        assert mean(by_op[op]) > 0.85, (op, by_op[op])
