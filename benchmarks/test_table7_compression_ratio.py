"""Experiment E5 — Table VII: average compression ratios per dataset/codec.

The paper's ratio table: SZOps modestly above SZp (format savings), SZ/SZ3
far above both (entropy coding), SZx/ZFP in between, with SCALE-LETKF the
most compressible dataset by a wide margin.
"""

from __future__ import annotations

import pytest

from repro import SZOps
from repro.baselines import make_codec


@pytest.mark.parametrize("codec_name", ["SZOps", "SZp", "SZ2", "SZ3", "SZx", "ZFP"])
def test_compression_kernel_per_codec(benchmark, codec_name, hurricane_field, bench_cfg):
    """Micro-cases: compression speed per codec on one Hurricane field."""
    codec = SZOps() if codec_name == "SZOps" else make_codec(codec_name)
    blob = benchmark(codec.compress, hurricane_field, bench_cfg.eps)
    benchmark.extra_info["ratio"] = round(blob.compression_ratio, 3)


def test_table7_report(benchmark, bench_cfg, table_cells):
    """Run the table7 table and persist results/table7.md."""
    cells = benchmark.pedantic(
        table_cells,
        args=("table7",),
        kwargs={"datasets": tuple(bench_cfg.datasets)},
        rounds=1,
        iterations=1,
    )
    ratio: dict[str, dict[str, float]] = {}
    for cell in cells:
        m = cell["metrics"]
        ratio.setdefault(m["dataset"], {})[m["codec"]] = m["mean_ratio"]
    for ds, r in ratio.items():
        assert r["SZOps"] > r["SZp"], f"{ds}: SZOps must out-compress SZp (Section VI-B3)"
        assert max(r["SZ2"], r["SZ3"]) > r["SZOps"], f"{ds}: SZ-family must out-compress SZOps"
    # dataset ordering: SCALE-LETKF most compressible, as in the paper
    szops_col = {ds: r["SZOps"] for ds, r in ratio.items()}
    assert szops_col["SCALE-LETKF"] == max(szops_col.values())
    assert szops_col["SCALE-LETKF"] > 2 * szops_col["Miranda"]
