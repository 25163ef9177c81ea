"""The benchmark's own tests, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each workload runs as a subprocess of ``perfbench/run.py`` on fields
scaled down to a few hundred elements, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from szbench import trace  # noqa: E402
from szbench.corpus import dataset_fields  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.1", "--seconds", "0.5"]


def bench(workload: str, seed: int = 1, trace_flag: int = 0, cwd: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace_flag), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {
        (w, t, seed): bench(w, seed, t)
        for w in WORKLOADS
        for t in (0, 1)
        for seed in ((1, 2) if t == 0 else (1, 1))
    }


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace_flag", [0, 1])
def test_every_metric_present_with_unit(results: dict, workload: str, trace_flag: int) -> None:
    got = results[(workload, trace_flag, 1)]
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    units = {name: m["unit"] for name, m in got["metrics"].items()}
    assert units == _declared("per_layer" if trace_flag else "end_to_end")
    assert all(isinstance(m["value"], float) for m in got["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace_flag", [0, 1])
def test_error_frac_is_zero(results: dict, workload: str, trace_flag: int) -> None:
    got = results[(workload, trace_flag, 1)]
    assert got["attempted"] >= 1
    assert got["failed"] == 0
    assert got["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(results: dict, workload: str) -> None:
    for name, m in results[(workload, 0, 1)]["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_the_same_seed(results: dict, workload: str) -> None:
    from steady import exact_metrics

    # The fixture ran the traced workload twice with seed 1.
    first = results[(workload, 1, 1)]["metrics"]
    again = bench(workload, 1, 1)["metrics"]
    for name in exact_metrics(workload):
        assert first[name]["value"] == again[name]["value"], name


def test_seed_changes_inputs_not_metric_names(results: dict) -> None:
    a = dataset_fields(1, scale=0.1)
    b = dataset_fields(2, scale=0.1)
    assert [(d, f) for d, f, _ in a] == [(d, f) for d, f, _ in b]
    assert any(not (x == y).all() for (_, _, x), (_, _, y) in zip(a, b))
    for workload in WORKLOADS:
        names_1 = set(results[(workload, 0, 1)]["metrics"])
        names_2 = set(results[(workload, 0, 2)]["metrics"])
        assert names_1 == names_2


def _owner_attrs() -> list[tuple[object, str, object]]:
    import importlib

    out = []
    for b in trace.BOUNDARIES:
        module = importlib.import_module(b.module)
        owner = getattr(module, b.owner) if b.owner else module
        current = vars(owner)[b.attr] if b.owner else getattr(owner, b.attr)
        out.append((owner, b.attr, current))
    return out


def test_wrappers_are_installed_then_restored() -> None:
    before = _owner_attrs()
    tracer = trace.Tracer()
    with tracer.installed():
        assert tracer.unwrapped == []
        during = _owner_attrs()
        assert all(d is not b for (_, _, b), (_, _, d) in zip(before, during))
    after = _owner_attrs()
    assert all(a is b for (_, _, b), (_, _, a) in zip(before, after))


def test_wrappers_are_restored_when_the_pass_raises() -> None:
    before = _owner_attrs()
    with pytest.raises(RuntimeError):
        with trace.Tracer().installed():
            raise RuntimeError("boom")
    after = _owner_attrs()
    assert all(a is b for (_, _, b), (_, _, a) in zip(before, after))


def test_missing_boundary_is_reported_not_fatal() -> None:
    tracer = trace.Tracer()
    tracer.install((trace.Boundary("repro.core.compressor", None, "no_such_stage", "x"),))
    tracer.restore()
    assert tracer.unwrapped == ["repro.core.compressor:no_such_stage"]


def test_traced_spans_measure_self_time() -> None:
    import numpy as np

    from repro import SZOps

    tracer = trace.Tracer()
    data = np.cumsum(np.random.default_rng(0).normal(size=4096)).astype(np.float32)
    with tracer.installed():
        SZOps().compress(data, 1e-3)
    comp = tracer.stat("compress")
    stages = sum(tracer.stat(s).total_s for s in ("qz", "lz", "bf"))
    assert comp.calls == 1 and tracer.stat("qz").calls == 1
    assert 0 < stages <= comp.total_s
    assert comp.self_s == pytest.approx(comp.total_s - stages)
    assert comp.mb == pytest.approx(data.nbytes / 1e6)


def test_refuses_to_run_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_put_check_compares_each_owners_stored_bytes() -> None:
    from repro import SZOps
    from szbench import serve

    cluster = serve._boot(1, 0.1, SZOps())
    try:
        blob, other = (c.to_bytes() for c in cluster.containers[:2])
        cluster.router.put("put-0", blob)
        assert serve._stored_on_every_owner(cluster, "put-0", blob)
        assert not serve._stored_on_every_owner(cluster, "put-0", other)
    finally:
        cluster.close()


def test_interleave_runs_every_op_once_with_a_codec_round_per_slice() -> None:
    from szbench.common import Ledger
    from szbench.corpus import interleave

    class Rounds:
        done = 0

        def run_round(self) -> None:
            self.done += 1

    seen: list[tuple[int, list[int]]] = []
    rounds = Rounds()
    interleave(list(range(10)), rounds, 3, lambda ops, at: seen.append((at, ops)), Ledger())
    assert rounds.done == 3
    assert [op for _at, ops in seen for op in ops] == list(range(10))
    assert all(ops[0] == at for at, ops in seen)
