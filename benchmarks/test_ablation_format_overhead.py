"""Experiment E7 — ablation backing Section VI-B3's ratio explanation.

The paper attributes SZOps's ratio advantage over SZp to dropping the
per-block compressed-byte-length limits and reorganizing outliers.  This
ablation toggles each SZp stream overhead individually and shows the
stripped format converging to the SZOps container size.
"""

from __future__ import annotations

import pytest

from repro.baselines import make_codec


@pytest.mark.parametrize(
    "variant,kwargs",
    [
        ("faithful", dict()),
        ("stripped", dict(store_block_lengths=False, full_sign_bitmap=False, word_align_payload=False)),
    ],
)
def test_szp_variant_compression(benchmark, variant, kwargs, hurricane_field, bench_cfg):
    codec = make_codec("SZp", **kwargs)
    blob = benchmark(codec.compress, hurricane_field, bench_cfg.eps)
    benchmark.extra_info["ratio"] = round(blob.compression_ratio, 3)


def test_ablation_format_report(benchmark, table_cells):
    cells = benchmark.pedantic(
        table_cells, args=("ablation-format",), rounds=1, iterations=1
    )
    ratios = {c["metrics"]["codec"]: c["metrics"]["mean_ratio"] for c in cells}
    assert ratios["SZp-stripped"] > ratios["SZp"]
    assert ratios["SZOps"] == pytest.approx(ratios["SZp-stripped"], rel=0.06)
