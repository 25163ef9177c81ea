"""Shared plumbing: seeds, timing ledger, reporting.

Every workload module exposes ``run(seed, seconds, trace) -> Report``.
The measured loop of a workload records each timed operation in a
:class:`Ledger`; the ledger also counts every attempted operation, every
operation that raised, and every answer that failed its correctness
check, which is what the result line's ``attempted`` / ``failed`` fields
and the printed ``error_frac`` come from.  Every reported time is the
program's own, as timed.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: How many times each workload builds its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in its order."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def derive_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class Failed:
    """Sentinel returned by :meth:`Ledger.timed` when the operation raised."""


FAILED = Failed()


@dataclass
class Ledger:
    """Timings, attempts, failures and wrong answers of one phase.

    The phase's wall time runs from its first timed operation to
    :meth:`close`, less the time spent in correctness checks.
    """

    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    samples: dict[Any, list[float]] = field(default_factory=lambda: defaultdict(list))
    notes: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    _opened: float | None = None
    _check_s: float = 0.0

    def close(self) -> None:
        """Add the open wall-time segment, without its check time."""
        if self._opened is not None:
            self.wall_s += time.perf_counter() - self._opened - self._check_s
            self._opened = None

    def timed(self, kind: Any, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one operation, recording its latency under ``kind``."""
        if self._opened is None:
            self._opened, self._check_s = time.perf_counter(), 0.0
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted, reported, never fatal
            self.raised += 1
            self._note(f"{kind} raised {type(exc).__name__}: {exc}")
            return FAILED
        self.samples[kind].append(time.perf_counter() - t0)
        return out

    def check(self, kind: Any, ok: Callable[[], bool]) -> bool:
        """Evaluate a correctness predicate outside the timed region."""
        t0 = time.perf_counter()
        try:
            good = bool(ok())
        except Exception as exc:
            good = False
            self._note(f"{kind} check raised {type(exc).__name__}: {exc}")
        self._check_s += time.perf_counter() - t0
        if not good:
            self.wrong += 1
            self._note(f"{kind}: wrong answer")
        return good

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def completed(self) -> int:
        return self.attempted - self.raised

    def p50_ms(self, kind: Any) -> float:
        return 1e3 * median(self.samples.get(kind, []))

    def p99_ms(self, kind: Any) -> float:
        values = self.samples.get(kind, [])
        return 1e3 * float(np.percentile(values, 99)) if values else 0.0

    def ops_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def throughput_mb_s(
    nbytes: dict[Any, int], times: dict[Any, list[float]]
) -> float:
    """Raw MB over the sum of per-item median times (not total/total)."""
    total_s = sum(median(times[key]) for key in nbytes if times.get(key))
    total_mb = sum(nbytes[key] for key in nbytes if times.get(key)) / 1e6
    return total_mb / total_s if total_s > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(
    build: Callable[[], Any],
    teardown: Callable[[Any], None],
    ledger: Ledger,
    repeats: int = SETUP_REPEATS,
) -> Any:
    """Build the set-up ``repeats`` times and keep the last state.

    Each build's wall time goes to ``ledger`` under ``"setup"``.
    ``teardown`` runs on every state but the last.
    """
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = build()
        ledger.samples["setup"].append(time.perf_counter() - t0)
    return state


def bound_slack(original: np.ndarray, eps: float) -> float:
    """The documented float slack on top of ``eps`` for one field.

    ``|x̂ - x| <= eps + ½ulp(|x| + eps)`` in float64, plus one float32 ulp
    when the field is float32 (docs/FORMAT.md, "Error contract").
    """
    scale = float(np.max(np.abs(original))) + eps
    slack = float(np.spacing(scale))
    if original.dtype == np.float32:
        slack += float(np.spacing(np.float32(scale)))
    return slack


def openblas_threads() -> int | None:
    """OpenBLAS thread count NumPy's ``np.dot`` would use, if discoverable."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def host_info() -> dict[str, Any]:
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass
class Report:
    """What one run prints: metrics (name -> (value, unit)) and the ledger."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @classmethod
    def build(
        cls,
        values: dict[str, float],
        section: str,
        ledgers: list[Ledger],
        extra: dict[str, Any] | None = None,
    ) -> "Report":
        """Pair ``values`` with the units of a BENCHMARK.json section.

        The names must be exactly the section's; the ledgers' attempts,
        failures and notes are summed.
        """
        units = declared_units(section)
        if set(values) != set(units):
            raise ValueError(
                f"metrics {sorted(values)} differ from BENCHMARK.json "
                f"{section} {sorted(units)}"
            )
        return cls(
            metrics={name: (float(values[name]), unit) for name, unit in units.items()},
            attempted=sum(lg.attempted for lg in ledgers),
            failed=sum(lg.failed for lg in ledgers),
            notes=[note for lg in ledgers for note in lg.notes],
            extra=extra or {},
        )

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )

    def emit(self, workload: str, trace: bool) -> None:
        """Human-readable table (stdout), then the JSON result line last."""
        out = sys.stdout
        mode = "traced" if trace else "untraced"
        out.write(f"# workload {workload} ({mode}): {self.attempted} ops\n")
        out.write(f"{'error_frac':<44} {self.error_frac:>14.6g} ratio\n")
        for name, (value, unit) in self.metrics.items():
            out.write(f"{name:<44} {value:>14.6g} {unit}\n")
        for key, value in self.extra.items():
            out.write(f"# {key}: {value}\n")
        for note in self.notes:
            out.write(f"# note: {note}\n")
        out.write(self.result_line() + "\n")
        out.flush()


def end_to_end_report(
    ledger: Ledger,
    setup: Ledger,
    codec_ledger: Ledger,
    nbytes: dict[Any, int],
    stream_bytes: int,
    extra: dict[str, Any],
) -> Report:
    """The end-to-end metrics, defined once for every workload.

    ``ledger`` holds the measured op loop (kinds ``reduce``,
    ``pointwise``, ``get``, ``put``), ``setup`` the set-up builds and
    ``codec_ledger`` the per-item ``("compress", i)`` /
    ``("decompress", i)`` timings of the items whose raw sizes are
    ``nbytes``; ``stream_bytes`` is the corpus' compressed size.
    """

    def throughput(stage: str) -> float:
        return throughput_mb_s(
            nbytes, {i: codec_ledger.samples.get((stage, i), []) for i in nbytes}
        )

    values = {
        "setup_s": median(setup.samples["setup"]),
        "peak_rss_mb": peak_rss_mb(),
        "compression_ratio": sum(nbytes.values()) / stream_bytes,
        "compress_mb_s": throughput("compress"),
        "decompress_mb_s": throughput("decompress"),
        "ops_per_s": ledger.ops_per_s(),
        "reduce_p50_ms": ledger.p50_ms("reduce"),
        "pointwise_p50_ms": ledger.p50_ms("pointwise"),
        "get_p50_ms": ledger.p50_ms("get"),
        "put_p50_ms": ledger.p50_ms("put"),
    }
    ledgers = [ledger] if codec_ledger is ledger else [ledger, codec_ledger]
    reductions = len(ledger.samples.get("reduce", []))
    # Printed, not reported as a metric: too host-sensitive to gate on
    # (README.md, "Why no p99 metric").
    p99 = f"{ledger.p99_ms('reduce'):.4g} ms ({reductions // 100} of {reductions} beyond it)"
    return Report.build(values, "end_to_end", ledgers, {**extra, "reduce p99": p99})
