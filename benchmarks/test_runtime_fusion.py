"""Experiment R1 — runtime fusion: fused op chain vs eager ops.

The ISSUE-1 acceptance benchmark: a fused 3-op chain
(negate → ×scalar → mean) through :mod:`repro.runtime` must run at least
2x faster than the three eager operations on the largest synthetic
dataset, with identical results.  The report case runs the
``runtime-fusion`` table through the experiment engine; its record is the
run's ``report.json`` under the session's runs directory.
"""

from __future__ import annotations

from repro import lazy, ops
from repro.runtime import cache_disabled, clear_cache


CHAIN = ["negation", "scalar_multiply=0.1", "mean"]


def _eager_chain(blob):
    with cache_disabled():
        return ops.apply_chain(blob, CHAIN, fused=False)


def _fused_chain(blob):
    clear_cache()
    return ops.apply_chain(blob, CHAIN, fused=True)


def test_eager_chain(benchmark, szops_blob):
    """Micro-case: three eager ops, decoded-block cache off (baseline)."""
    benchmark(_eager_chain, szops_blob)


def test_fused_chain_cold(benchmark, szops_blob):
    """Micro-case: one LazyStream chain, cache cleared every round."""
    benchmark(_fused_chain, szops_blob)


def test_fused_chain_warm(benchmark, szops_blob):
    """Micro-case: the same chain with the decoded-block cache warm."""
    lazy(szops_blob).negate().scalar_multiply(0.1).mean()  # prime
    benchmark(lambda b: lazy(b).negate().scalar_multiply(0.1).mean(), szops_blob)


def test_runtime_fusion_report(bench_cfg, experiment_runs_root):
    """Run the fusion table through the engine and check its one cell."""
    from repro.harness.experiments import (
        get_table,
        render_report_markdown,
        run_experiment,
    )

    table = get_table("runtime-fusion")
    result = run_experiment(
        table,
        bench_cfg,
        experiment_runs_root,
        index_path=experiment_runs_root / "experiments.db",
    )
    print(render_report_markdown(result.report))
    (cell,) = result.cells
    bench = cell["metrics"]
    # Acceptance: >= 2x on the largest dataset, identical results.
    assert result.all_ok
    assert bench["identical_results"], "fused chain diverged from eager ops"
    assert bench["speedup_fused_vs_eager"] >= 2.0, bench
