"""Harness tests: configuration, rendering, persistence, tiny-scale drivers."""

from __future__ import annotations

import pytest

from repro.harness import (
    BenchConfig,
    config_from_env,
    render_result,
    render_table,
    save_result,
)
from repro.harness.runner import ExperimentResult


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


class TestRendering:
    def test_render_table_markdown(self):
        text = render_table(["x", "y"], [[1, 2.5], ["a", 0.000123]], title="T")
        assert "### T" in text
        assert "| x" in text and "| a" in text
        assert "0.000123" in text

    def test_render_result_with_notes(self):
        res = ExperimentResult("e1", "Title", ["a"], [[1]], notes=["check"])
        text = render_result(res)
        assert "> check" in text

    def test_save_result_writes_file(self, tmp_path):
        res = ExperimentResult("exp_x", "Title", ["a"], [[1]])
        path = save_result(res, tmp_path)
        assert path.name == "exp_x.md"
        assert "Title" in path.read_text()


@pytest.mark.slow
class TestDriversTinyScale:
    """Each driver runs end-to-end at a tiny scale and keeps its invariants."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return BenchConfig(scale=0.4, max_fields=1)

    def test_table6_structure(self, cfg):
        from repro.harness import run_table6

        res = run_table6(cfg)
        assert len(res.rows) == 4
        for _, const, total, pct in res.rows:
            assert 0 <= const <= total
            assert pct == pytest.approx(100 * const / total)

    def test_table7_shape_claims(self, cfg):
        from repro.harness import run_table7

        res = run_table7(cfg)
        for row in res.rows:
            ds, szops, szp, sz2, sz3, szx, zfp = row
            assert szops > szp, f"{ds}: SZOps ratio must beat SZp"
            assert all(r > 1 for r in row[1:])

    def test_figures_5_and_6_consistent(self, cfg):
        from repro.harness import ops_matrix_from_cells, run_figure5, run_figure6
        from repro.harness.experiments import (
            ExecutionContext,
            execute_cell,
            get_table,
        )

        mcfg = BenchConfig(scale=0.4, max_fields=1, datasets=("Miranda",))
        table = get_table("ops-matrix", datasets=("Miranda",))
        ctx = ExecutionContext(mcfg)
        matrix = ops_matrix_from_cells(
            [{"metrics": execute_cell(c, table, mcfg, ctx)} for c in table.expand()]
        )
        f5 = run_figure5(cfg, matrix)
        f6 = run_figure6(cfg, matrix)
        assert len(f5.rows) == len(f6.rows) == 7
        for m in matrix:
            assert m.szp_total_s > 0 and m.szops_kernel_s > 0
            assert m.szops_kernel_warm_s > 0
        # fully-compressed-space ops must be dramatically faster
        fast = {m.op_name: m.speedup for m in matrix}
        assert fast["negation"] > 5
        assert fast["scalar_add"] > 5
        assert fast["scalar_subtract"] > 5

    def test_ablation_format_recovers_szops_ratio(self, cfg):
        from repro.harness import run_ablation_format

        res = run_ablation_format(cfg)
        labels = [row[0] for row in res.rows]
        ratios = {row[0]: row[1] for row in res.rows}
        assert ratios["all three off (SZOps-shaped)"] >= ratios["SZp (faithful format)"]
        assert ratios["SZOps container"] == pytest.approx(
            ratios["all three off (SZOps-shaped)"], rel=0.06
        )

    def test_ablation_constant_blocks_monotone(self, cfg):
        from repro.harness import run_ablation_constant_blocks

        res = run_ablation_constant_blocks(cfg)
        fractions = [row[1] for row in res.rows]
        assert fractions == sorted(fractions)
        # more constant blocks should not make the reduction slower overall
        times = [row[2] for row in res.rows]
        assert times[-1] < times[0]
