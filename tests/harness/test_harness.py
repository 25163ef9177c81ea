"""Harness tests: configuration, artifact rendering, tiny-scale paper tables."""

from __future__ import annotations

import pytest

from repro.harness import BenchConfig, config_from_env, render_table
from repro.harness.experiments import (
    ExecutionContext,
    execute_cell,
    get_table,
    render_artifact,
    run_experiment,
)


def _metrics(table, cfg: BenchConfig) -> list[dict]:
    """Every cell of ``table`` executed through the engine, in order."""
    ctx = ExecutionContext(cfg)
    return [
        {"metrics": execute_cell(cell, table, cfg, ctx)} for cell in table.expand()
    ]


class TestConfig:
    def test_defaults(self):
        cfg = BenchConfig()
        assert cfg.eps == 1e-4
        assert cfg.datasets == ("Hurricane", "CESM-ATM", "SCALE-LETKF", "Miranda")

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BENCH_FIELDS", "2")
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "3")
        cfg = config_from_env()
        assert cfg.scale == 0.5 and cfg.max_fields == 2 and cfg.repeats == 3

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FIELDS", "2")
        cfg = config_from_env(max_fields=7)
        assert cfg.max_fields == 7

    def test_limit_fields(self):
        cfg = BenchConfig(max_fields=2)
        assert cfg.limit_fields(["a", "b", "c"]) == ["a", "b"]
        assert BenchConfig(max_fields=0).limit_fields(["a", "b"]) == ["a", "b"]


class TestRepeats:
    """``REPRO_BENCH_REPEATS`` (``cfg.repeats``) raises a paper table's best-of."""

    def test_ops_matrix_takes_cfg_repeats(self):
        table = get_table("table4")
        cfg = BenchConfig(scale=0.2, max_fields=1, repeats=2)
        cell = table.expand()[0]
        m = execute_cell(cell, table, cfg, ExecutionContext(cfg))
        assert table.repeats == 1 and m["repeats"] == 2
        assert m["traditional_total_seconds"] == pytest.approx(
            m["traditional_decompress_seconds"]
            + m["traditional_operate_seconds"]
            + m["traditional_compress_seconds"]
        )

    def test_plateau_sweep_keeps_at_least_three(self):
        table = get_table("ablation-constant-blocks")
        cell = table.expand()[0]
        for cfg_repeats, expected in ((1, 3), (4, 4)):
            cfg = BenchConfig(repeats=cfg_repeats)
            m = execute_cell(cell, table, cfg, ExecutionContext(cfg))
            assert m["repeats"] == len(m["mean_seconds_reps"]) == expected
            assert m["mean_seconds"] == min(m["mean_seconds_reps"])


class TestColdColumnsDecode:
    """Columns that time a cold kernel decode on every timed repeat.

    The decoded-block cache memoises a stream's moments on the container,
    so a reduction timed without ``cache_disabled()`` or a cache clear
    before each repeat would read five ints back instead of decoding.
    """

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Each decode, tagged with whether the cache was enabled."""
        from repro.core.ops import _partial
        from repro.runtime import active_cache
        from repro.runtime import cache as cache_module

        real = _partial.decode_stored_blocks
        calls: list[bool] = []

        def counted(c):
            calls.append(active_cache() is not None)
            return real(c)

        monkeypatch.setattr(cache_module, "decode_stored_blocks", counted)
        monkeypatch.setattr(_partial, "decode_stored_blocks", counted)
        return calls

    def test_figure6_cold_kernel(self, decodes, monkeypatch):
        import repro.workflow

        traditional = []
        real = repro.workflow.run_traditional

        def counted(*args):
            traditional.append(args)
            return real(*args)

        monkeypatch.setattr(repro.workflow, "run_traditional", counted)
        table = get_table("ops-matrix", datasets=("Miranda",))
        cell = next(c for c in table.expand() if c.factors["op"] == "variance")
        cfg = BenchConfig(scale=0.2, max_fields=2, repeats=3)
        m = execute_cell(cell, table, cfg, ExecutionContext(cfg))
        assert m["repeats"] == 3
        # cold: one decode per field and repeat; warm: the first prime only
        assert decodes.count(False) == 3 * 2
        assert decodes.count(True) == 2
        # one untimed warm-up before the timed repeats
        assert len(traditional) == 3 * 2 + 1

    def test_plateau_sweep(self, decodes):
        table = get_table("ablation-constant-blocks")
        cfg = BenchConfig(repeats=4)
        m = execute_cell(table.expand()[-1], table, cfg, ExecutionContext(cfg))
        assert m["repeats"] == 4
        assert decodes == [False] * 4

    def test_runtime_fusion_cached_column(self, decodes):
        table = get_table("runtime-fusion")
        cfg = BenchConfig(scale=0.2, repeats=3)
        m = execute_cell(table.expand()[0], table, cfg, ExecutionContext(cfg))
        reps = m["repeats"]
        assert m["identical_results"]
        # cache off: eager (multiply + mean) per repeat, plus the breakdown
        assert decodes.count(False) == 2 * reps + 2
        # cache on, cleared before each repeat: eager+cache decodes twice,
        # fused cold once; fused warm reads the cached view
        assert decodes.count(True) == 2 * reps + reps


class TestRendering:
    def test_render_table_markdown(self):
        text = render_table(["x", "y"], [[1, 2.5], ["a", 0.000123]], title="T")
        assert "### T" in text
        assert "| x" in text and "| a" in text
        assert "0.000123" in text

    def test_render_artifact_pivot(self):
        # Table IV/VII shape: one row per op, one column per codec level.
        cells = [
            {"metrics": {"op": op, "codec": codec, "traditional_mbs": mbs}}
            for op, codec, mbs in (
                ("negation", "SZp", 45.0),
                ("negation", "SZ2", 0.5),
                ("mean", "SZp", 90.0),
                ("mean", "SZ2", 4.5),
            )
        ]
        lines = render_artifact("table4", cells).splitlines()
        assert lines[0].startswith("### Table IV")
        header = [h.strip() for h in lines[2].strip("|").split("|")]
        assert header == ["Operation", "SZp", "SZ2"]
        rows = [[v.strip() for v in ln.strip("|").split("|")] for ln in lines[4:6]]
        assert rows == [["negation", "45.0", "0.5"], ["mean", "90.0", "4.5"]]

    def test_render_artifact_flat(self):
        # Figure 5 shape: one row per cell, keyed by (dataset, op).
        metrics = {
            "dataset": "Miranda",
            "op": "negation",
            "traditional_decompress_seconds": 0.5,
            "traditional_operate_seconds": 0.01,
            "traditional_compress_seconds": 0.4,
            "traditional_total_seconds": 0.91,
            "szops_kernel_seconds": 0.002,
            "reduction_pct": 99.8,
        }
        text = render_artifact("figure5", [{"metrics": metrics}])
        header = text.splitlines()[2]
        assert "SZp total" in header and "reduction %" in header
        assert "| Miranda" in text and "99.8" in text

    def test_render_artifact_with_notes(self):
        cells = [{"metrics": {"codec": "SZp", "mean_ratio": 1.9}}]
        text = render_artifact("ablation_format", cells)
        assert "> Backs Section VI-B3" in text
        assert text.endswith("\n")

    def test_run_writes_artifact_markdown(self, tmp_path):
        table = get_table("ablation-format")
        cfg = BenchConfig(scale=0.2, max_fields=1)
        result = run_experiment(table, cfg, tmp_path)
        path = result.run_dir / "ablation_format.md"
        assert path.read_text() == render_artifact("ablation_format", result.cells)
        assert "SZp-stripped" in path.read_text()


@pytest.mark.slow
class TestDriversTinyScale:
    """Each paper table runs end-to-end at a tiny scale and keeps its invariants."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return BenchConfig(scale=0.4, max_fields=1)

    def test_table6_structure(self, cfg):
        cells = _metrics(get_table("table6"), cfg)
        assert len(cells) == 4
        for m in (c["metrics"] for c in cells):
            assert 0 <= m["constant_blocks"] <= m["total_blocks"]
            assert m["constant_pct"] == pytest.approx(
                100 * m["constant_blocks"] / m["total_blocks"]
            )

    def test_table7_shape_claims(self, cfg):
        ratio: dict[str, dict[str, float]] = {}
        for m in (c["metrics"] for c in _metrics(get_table("table7"), cfg)):
            ratio.setdefault(m["dataset"], {})[m["codec"]] = m["mean_ratio"]
        assert len(ratio) == 4
        for ds, r in ratio.items():
            assert r["SZOps"] > r["SZp"], f"{ds}: SZOps ratio must beat SZp"
            assert all(v > 1 for v in r.values())

    def test_figures_5_and_6_consistent(self, cfg):
        cells = _metrics(get_table("ops-matrix", datasets=("Miranda",)), cfg)
        for name in ("figure5", "figure6"):
            lines = render_artifact(name, cells).splitlines()
            assert sum(ln.startswith("| Miranda") for ln in lines) == 7, name
        matrix = [c["metrics"] for c in cells]
        for m in matrix:
            assert m["traditional_total_seconds"] > 0 and m["szops_kernel_seconds"] > 0
            assert m["szops_kernel_warm_seconds"] > 0
        # fully-compressed-space ops must be dramatically faster
        fast = {m["op"]: m["speedup"] for m in matrix}
        assert fast["negation"] > 5
        assert fast["scalar_add"] > 5
        assert fast["scalar_subtract"] > 5

    def test_ablation_format_recovers_szops_ratio(self, cfg):
        cells = _metrics(get_table("ablation-format"), cfg)
        ratios = {c["metrics"]["codec"]: c["metrics"]["mean_ratio"] for c in cells}
        assert ratios["SZp-stripped"] >= ratios["SZp"]
        assert ratios["SZOps"] == pytest.approx(ratios["SZp-stripped"], rel=0.06)

    def test_ablation_constant_blocks_monotone(self, cfg):
        matrix = [
            c["metrics"] for c in _metrics(get_table("ablation-constant-blocks"), cfg)
        ]
        fractions = [m["constant_pct"] for m in matrix]
        assert fractions == sorted(fractions)
        # more constant blocks should not make the reduction slower overall
        times = [m["mean_seconds"] for m in matrix]
        assert times[-1] < times[0]
