"""Experiment E1 — Table IV: traditional-workflow throughput per codec.

The paper reports MB/s for each of the seven operations executed through
the traditional decompress-operate-recompress workflow on the Hurricane
dataset with each baseline codec, showing SZp as the fastest baseline.
"""

from __future__ import annotations

import pytest

from repro.baselines import make_codec
from repro.harness.experiments import render_artifact
from repro.workflow import run_traditional


@pytest.mark.parametrize("codec_name", ["SZp", "SZ2", "SZ3", "SZx", "ZFP"])
def test_traditional_negation_per_codec(benchmark, codec_name, hurricane_field, bench_cfg):
    """Micro-case: one traditional negation per codec (Table IV column)."""
    codec = make_codec(codec_name)
    blob = codec.compress(hurricane_field, bench_cfg.eps)
    benchmark.extra_info["codec"] = codec_name
    benchmark.pedantic(
        run_traditional, args=(codec, blob, "negation", None), rounds=2, iterations=1
    )


def test_table4_report(benchmark, table_cells):
    """Run the table4 table and persist results/table4.md."""
    cells = benchmark.pedantic(table_cells, args=("table4",), rounds=1, iterations=1)
    assert "SZp" in render_artifact("table4", cells)
    mbs: dict[str, dict[str, float]] = {}
    for cell in cells:
        m = cell["metrics"]
        mbs.setdefault(m["op"], {})[m["codec"]] = m["traditional_mbs"]
    # shape check: SZp is the fastest traditional codec for scalar ops
    # (within measurement noise SZx can tie; require >= 0.7x of the max).
    for op, by_codec in mbs.items():
        szp, sz2, sz3, szx, zfp = (by_codec[c] for c in ("SZp", "SZ2", "SZ3", "SZx", "ZFP"))
        assert szp > sz2 and szp > sz3, f"SZp must beat SZ2/SZ3 on {op}"
        assert szp >= 0.6 * max(szp, szx, zfp), op
