"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload codec|analysis|serve \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same op schedule untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  The metric names and units are the
ones declared in ``BENCHMARK.json``; a run whose metrics differ from them
fails.  Stdout carries a readable table
(including ``error_frac``) and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` next to this directory;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("codec", "analysis", "serve")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Per-axis dataset scale; below 1 only for the benchmark's own tests.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    module = importlib.import_module(f"szbench.{args.workload}")
    trace = bool(args.trace)
    report = module.run(args.seed, args.seconds, trace, scale=args.scale)
    report.emit(args.workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
