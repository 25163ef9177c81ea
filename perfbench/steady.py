"""Steadiness report: repeat one workload and compare spreads with bounds.

Usage (from the repository root):

    python3 perfbench/steady.py --workload codec --runs 10
    python3 perfbench/steady.py --workload serve --runs 2 --trace 1 --same-seed
    python3 perfbench/steady.py --workload codec --runs 10 --save a.json
    python3 perfbench/steady.py --workload codec --runs 10 --against a.json

Runs ``perfbench/run.py`` once per seed (``--seed0``, ``--seed0 + 1``, ...;
all with ``--seed0`` under ``--same-seed``), one run at a time, and prints
for every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median`` next to the metric's bound from BENCHMARK.json.  A spread at
or above a third of its bound is flagged: that is the margin the
benchmark is tuned to.  ``--save`` writes the medians to a JSON file;
``--against`` compares this set's medians with a saved set and flags
every metric that reads worse than the saved median by more than its
bound (the check two sets of runs of the same code must pass).  With
``--same-seed``, the exact per-layer counts are also checked for
identical values across runs.  The host, ``nproc`` and the
OpenBLAS thread count head the report (``np.dot`` in variance may use
BLAS threads).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics that are exact counts for a given seed.
EXACT = (
    "core.encode.constant_block_frac",
    "core.encode.mean_width_bits",
    "runtime.cache.hits",
    "runtime.cache.misses",
    "runtime.cache.hit_rate",
    "runtime.cache.evictions",
    "runtime.cache.lookups_per_op",
    "cluster.router.fanout_per_reduce",
    "cluster.router.retries",
    "service.stats.busy",
    "service.stats.timeouts",
    "service.stats.errors",
    "service.store.evictions",
)
#: Exact counts an OP can move by joining a finished micro-batcher flight
#: on ``serve`` (README.md, "Findings"): the joining OP does no cache
#: lookup of its own, so how many join depends on timing.
NOT_EXACT_ON = {"serve": ("runtime.cache.hits", "runtime.cache.lookups_per_op")}


def exact_metrics(workload: str) -> list[str]:
    """The per-layer metrics that must repeat exactly for a seed."""
    return [name for name in EXACT if name not in NOT_EXACT_ON.get(workload, ())]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--save", type=Path, help="write this set's medians here")
    parser.add_argument("--against", type=Path, help="compare with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    sys.path.insert(0, str(HERE))
    from szbench.common import host_info

    print(f"# host: {json.dumps(host_info())}")
    print(f"# workload {args.workload}, {args.runs} runs, {seconds} s each, trace {args.trace}")
    runs = []
    for i in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + i
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"# run {i + 1}: seed {seed}, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}", flush=True)

    status = 0 if all(r["correct"] for r in runs) else 1
    saved = json.loads(args.against.read_text()) if args.against else {}
    medians = {}
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'vs saved':>9}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(values)
        medians[name] = med
        bound = metrics[name].get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <-- above bound/3"
        change = "-"
        if name in saved and saved[name]:
            # Positive = worse than the saved set, as a share of its median.
            worse = (med - saved[name]) / saved[name]
            if metrics[name]["better"] == "higher":
                worse = -worse
            change = f"{worse:+.4f}"
            if bound is not None and worse > bound:
                status = 1
                flag += "  <-- worse than saved by more than bound"
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound_text:>6} {change:>9}{flag}")
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1) + "\n")
    if args.same_seed and args.trace:
        for name in exact_metrics(args.workload):
            values = {r["metrics"][name]["value"] for r in runs}
            if len(values) > 1:
                status = 1
                print(f"# NOT exact across runs: {name} {sorted(values)}")
        print("# exact counts checked across same-seed runs")
    return status


if __name__ == "__main__":
    sys.exit(main())
