"""Service telemetry: request counters, latency histograms, gauges.

Everything the ``STATS`` endpoint serves lives here.  The design follows
the usual production-metrics shape (think Prometheus client, shrunk to
the stdlib): monotonically increasing counters, log-spaced latency
histograms with quantile estimation, and point-in-time gauges — all
behind one lock so the snapshot the endpoint serves is internally
consistent.

The histogram buckets are geometric (factor 2) from 0.05 ms to ~104 s,
which brackets everything from an in-memory STATS hit to a worst-case
cold reduction on a large array.  Quantiles are estimated by linear
interpolation inside the winning bucket — the standard histogram-quantile
estimate, accurate to a factor of 2 by construction and far cheaper than
retaining raw samples on a server meant to run indefinitely.

Thread-safety: the server's event loop, the executor pool threads, and
the micro-batcher all record into one :class:`Telemetry`; every mutation
holds ``self._lock`` (the lockcheck pass verifies this lexically via
``_GUARDED_ATTRS``).
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

__all__ = ["LatencyHistogram", "Telemetry"]

#: Histogram bucket upper bounds in seconds: 0.05 ms * 2^k, 21 buckets
#: (the last finite bound is ~52 s; beyond that counts in +inf).
_BUCKET_BOUNDS: tuple[float, ...] = tuple(5e-5 * (2.0**k) for k in range(21))


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimation.

    Not locked — the owning :class:`Telemetry` serializes access.
    """

    __slots__ = ("counts", "overflow", "total", "sum_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * len(_BUCKET_BOUNDS)
        self.overflow = 0
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.total += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def quantile(self, frac: float) -> float:
        """Estimated ``frac``-quantile in seconds (0 when empty)."""
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {frac}")
        if self.total == 0:
            return 0.0
        rank = frac * self.total
        seen = 0.0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                lo = _BUCKET_BOUNDS[i - 1] if i else 0.0
                hi = _BUCKET_BOUNDS[i]
                frac = (rank - seen) / count
                return lo + frac * (hi - lo)
            seen += count
        return self.max_seconds

    def snapshot(self) -> dict[str, float]:
        mean = self.sum_seconds / self.total if self.total else 0.0
        return {
            "count": float(self.total),
            "mean_ms": 1e3 * mean,
            "p50_ms": 1e3 * self.quantile(0.50),
            "p90_ms": 1e3 * self.quantile(0.90),
            "p99_ms": 1e3 * self.quantile(0.99),
            "max_ms": 1e3 * self.max_seconds,
        }


class Telemetry:
    """Aggregated operational metrics for one server instance."""

    # Lock discipline (verified lexically by `repro.cli lint`'s lockcheck
    # pass): every mutation of these attributes must hold self._lock.
    _GUARDED_ATTRS = ("_requests", "_histograms", "_counters", "_gauges", "_keyed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        #: endpoint -> status name -> count.
        self._requests: dict[str, dict[str, int]] = {}
        #: endpoint -> latency histogram (OK requests only).
        self._histograms: dict[str, LatencyHistogram] = {}
        #: free-form monotonic counters (batches, dedup hits, ...).
        self._counters: dict[str, int] = {}
        #: point-in-time values (queue depth at last sample, ...).
        self._gauges: dict[str, float] = {}
        #: group -> key -> count: counters with a dynamic label dimension
        #: (per-shard request counts, per-node failover tallies, ...).
        self._keyed: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------ record

    def record_request(self, endpoint: str, status: str, seconds: float) -> None:
        """Count one finished request and (if OK) observe its latency."""
        with self._lock:
            per_status = self._requests.setdefault(endpoint, {})
            per_status[status] = per_status.get(status, 0) + 1
            if status == "OK":
                hist = self._histograms.get(endpoint)
                if hist is None:
                    hist = LatencyHistogram()
                    self._histograms[endpoint] = hist
                hist.observe(seconds)

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def increment_keyed(self, group: str, key: str, amount: int = 1) -> None:
        """Count one event under a dynamic label (e.g. per-shard traffic)."""
        with self._lock:
            per_key = self._keyed.setdefault(group, {})
            per_key[key] = per_key.get(key, 0) + amount

    # ------------------------------------------------------------------ read

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, extra: Mapping[str, object] | None = None) -> dict[str, object]:
        """One consistent JSON-able view of every metric.

        ``extra`` merges caller-provided sections (store/cache/queue
        state) into the document under their own keys.
        """
        with self._lock:
            endpoints: dict[str, object] = {}
            for endpoint, per_status in sorted(self._requests.items()):
                entry: dict[str, object] = {"by_status": dict(sorted(per_status.items()))}
                hist = self._histograms.get(endpoint)
                if hist is not None:
                    entry["latency"] = hist.snapshot()
                endpoints[endpoint] = entry
            doc: dict[str, object] = {
                "uptime_seconds": self.uptime_seconds,
                "endpoints": endpoints,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "keyed_counters": {
                    group: dict(sorted(per_key.items()))
                    for group, per_key in sorted(self._keyed.items())
                },
            }
        if extra:
            doc.update(extra)
        return doc
