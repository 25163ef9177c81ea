"""Workload ``codec``: the bulk in-situ write/read path.

Every field of the four dataset stand-ins (31 float32 fields, ~10.3 M
elements, 41 MB) at relative bounds 1e-2 and 1e-4: 62 items.  One pass
takes each item through the in-situ path a simulation would:

    compress -> write (to_bytes) -> in-situ statistics on the fresh stream
    (mean, variance, std, minimum, maximum) -> a unit-conversion chain
    materialized ->
    read back (from_bytes) -> decompress

QZ/LZ/BF and their inverses do most of the work.  Compress (write) runs
beside decompress (read), so a change that trades one against the other
shows; the two bounds vary the width mix and the constant-block share.
The 62 items cycle through the 32-entry decoded-block cache, so each
item's first statistic decodes (a miss) and its other five
compressed-domain operations hit.  The pass count is fixed per
``--seconds``, never a time box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import SZOps, SZOpsCompressed, lazy, ops
from repro.core.ops import apply_chain
from repro.runtime import clear_cache

from szbench.common import (
    FAILED,
    Ledger,
    Report,
    bound_slack,
    end_to_end_report,
    repeated_setup,
)
from szbench.corpus import dataset_fields
from szbench.reference import Moments, matches
from szbench.trace import cache_snapshot, stream_planes, traced_report, traced_run

BOUNDS = (1e-2, 1e-4)
#: Passes over the 62 items per second of ``--seconds`` (fixed, not timed).
PASSES_PER_SECOND = 0.5
#: Untimed items (the last ones, so the cache enters the first pass as it
#: enters every later one) run before timing starts.
WARMUP_ITEMS = 8
STATISTICS = ("mean", "variance", "std", "minimum", "maximum")
#: The materialized unit conversion: x * 1.8 + 32.
CONVERSION = (("scalar_multiply", 1.8), ("scalar_add", 32.0))


@dataclass
class Item:
    data: np.ndarray
    bound: float
    blob: bytes
    moments: Moments
    converted: bytes
    widths: np.ndarray


def _references(codec: SZOps, fields: list) -> list[Item]:
    """Compress each item once; exact answers for every later check."""
    items = []
    for _dataset, _field, data in fields:
        for bound in BOUNDS:
            c = codec.compress(data, bound, mode="rel")
            q = codec.decompress_quantized(c)
            converted = apply_chain(c, CONVERSION, fused=False)
            items.append(
                Item(
                    data=data,
                    bound=bound,
                    blob=c.to_bytes(),
                    moments=Moments.of(q, c.eps),
                    converted=converted.to_bytes(),
                    widths=c.widths.copy(),
                )
            )
    clear_cache()
    return items


def _convert(c: SZOpsCompressed) -> SZOpsCompressed:
    chain = lazy(c)
    for name, scalar in CONVERSION:
        chain = chain.apply(name, scalar)
    return chain.materialize()


def _one_pass(codec: SZOps, items: list[Item], ledger: Ledger) -> None:
    for i, item in enumerate(items):
        c = ledger.timed(("compress", i), codec.compress, item.data, item.bound, "rel")
        if c is FAILED:
            continue
        blob = ledger.timed("put", c.to_bytes)
        if blob is not FAILED:
            ledger.check("put", lambda: blob == item.blob)
        for name in STATISTICS:
            value = ledger.timed("reduce", getattr(ops, name), c)
            if value is not FAILED:
                ledger.check(name, lambda: matches(name, value, item.moments.value(name)))
        out = ledger.timed("pointwise", _convert, c)
        if out is not FAILED:
            ledger.check("pointwise", lambda: out.to_bytes() == item.converted)
        back = ledger.timed("get", SZOpsCompressed.from_bytes, item.blob)
        if back is FAILED:
            continue
        x = ledger.timed(("decompress", i), codec.decompress, back)
        if x is not FAILED:
            ledger.check(
                "decompress",
                lambda: float(np.max(np.abs(x.astype(np.float64) - item.data)))
                <= back.eps + bound_slack(item.data, back.eps),
            )


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Report:
    codec = SZOps()
    setup = Ledger()
    fields = repeated_setup(lambda: dataset_fields(seed, scale=scale), lambda _f: None, setup)
    items = _references(codec, fields)
    passes = max(1, round(seconds * PASSES_PER_SECOND))
    _one_pass(codec, items[-WARMUP_ITEMS:], Ledger())

    def run_pass() -> tuple[Ledger, float]:
        ledger = Ledger()
        for _ in range(passes):
            _one_pass(codec, items, ledger)
        ledger.close()
        return ledger, ledger.wall_s

    if trace:
        tracer, ledgers, counts, walls = traced_run(run_pass, cache_snapshot)
        counts.update(stream_planes(items))
        counts["ops"] = float(ledgers[1].completed)
        return traced_report(tracer, counts, walls, ledgers)

    ledger, _wall = run_pass()
    return end_to_end_report(
        ledger,
        setup,
        ledger,
        {i: item.data.nbytes for i, item in enumerate(items)},
        sum(len(item.blob) for item in items),
        {"passes": passes, "items": len(items)},
    )
