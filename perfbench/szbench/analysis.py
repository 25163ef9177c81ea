"""Workload ``analysis``: in-process compressed-domain analysis.

The corpus is the four dataset stand-ins at two seeds derived from the
workload seed: 62 fields compressed at relative bound 1e-3, about twice
the decoded-block cache's default 32 entries.  Each operation picks a
stream with Zipf(s = 1.0) skew over a fixed rank order; the multiset of
operations is fixed and the seed only orders it (and rotates the data),
so every run does the same work.  A simulated LRU hits about 80 % of the
time: p50 sits in the hit mode, p99 in the
miss mode.  The mix is 3:1 reductions to pointwise chains:

* reductions — ``repro.ops`` mean / variance / std / minimum / maximum,
  one in three of them behind a ``lazy`` negate + scalar_add prefix;
* pointwise — a ``lazy`` negate / scalar_multiply / scalar_add chain,
  materialized, then written (to_bytes) and read back (from_bytes).

``core.ops`` and ``runtime`` do the work; codec decode runs only on
cache misses.  Set-up synthesizes and compresses the corpus.  Six timed
rounds of re-compressing and decompressing every stream, spread over
the measured op loop (outside its wall time), give this workload's
``compress_mb_s`` / ``decompress_mb_s``; the traced run skips them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import SZOps, SZOpsCompressed, lazy, ops
from repro.core.ops import apply_chain
from repro.core.quantize import quantize_scalar
from repro.runtime import clear_cache

from szbench.common import (
    FAILED,
    Ledger,
    Report,
    derive_seed,
    end_to_end_report,
    repeated_setup,
)
from szbench.corpus import CodecRounds, dataset_fields, interleave
from szbench.reference import REDUCTIONS, Moments, matches
from szbench.trace import cache_snapshot, stream_planes, traced_report, traced_run

BOUND = 1e-3
CORPUS_SEEDS = 2
ZIPF_S = 1.0
#: Operations per second of ``--seconds`` (a fixed count, not a time box).
OPS_PER_SECOND = 300
#: Untimed operations that bring the cache to its steady state first.
WARMUP_OPS = 400
#: Codec rounds over the corpus, spread over the measured op loop.
CODEC_ROUNDS = 6
PREFIX_SCALAR = 1.0
CHAIN = (("negation", None), ("scalar_multiply", 0.5), ("scalar_add", 1.0))


@dataclass
class Stream:
    container: SZOpsCompressed
    raw_nbytes: int
    moments: Moments
    prefixed: Moments
    chain_bytes: bytes | None = None


@dataclass
class Corpus:
    streams: list[Stream]
    fields: list[np.ndarray]
    #: set-up wall times, under "setup"
    setup: Ledger


def _zipf_order(n: int) -> np.ndarray:
    """Stream index of each Zipf rank: interleave the corpus seeds and
    datasets so hot ranks mix field sizes (fixed, seed-independent)."""
    return np.argsort(np.arange(n) % CORPUS_SEEDS * n + np.arange(n), kind="stable")


@dataclass(frozen=True)
class Op:
    stream: int
    kind: str  # a reduction name or "pointwise"
    prefixed: bool = False


def schedule(seed: int, n_streams: int, n_ops: int, tag: int) -> list[Op]:
    """A fixed multiset of ``n_ops`` operations in a seed-shuffled order.

    The operations themselves (stream, kind, prefix) are drawn once from
    a constant seed, so every run does the same work; ``seed`` orders it.
    """
    rng = np.random.default_rng(derive_seed(0, tag))
    weights = 1.0 / np.arange(1, n_streams + 1) ** ZIPF_S
    order = _zipf_order(n_streams)
    ranks = rng.choice(n_streams, size=n_ops, p=weights / weights.sum())
    pointwise = rng.random(n_ops) < 0.25
    names = rng.integers(0, len(REDUCTIONS), size=n_ops)
    prefixed = rng.random(n_ops) < 1.0 / 3.0
    plan = [
        Op(int(order[r]), "pointwise")
        if pw
        else Op(int(order[r]), REDUCTIONS[int(k)], bool(pf))
        for r, pw, k, pf in zip(ranks, pointwise, names, prefixed)
    ]
    np.random.default_rng(derive_seed(seed, tag)).shuffle(plan)
    return plan


def _build(seed: int, scale: float, codec: SZOps) -> list[tuple]:
    fields = [
        f for tag in range(CORPUS_SEEDS) for f in dataset_fields(seed, tag + 1, scale=scale)
    ]
    return [(codec.compress(data, BOUND, mode="rel"), data) for _d, _f, data in fields]


def _setup(seed: int, scale: float) -> Corpus:
    codec = SZOps()
    ledger = Ledger()
    built = repeated_setup(lambda: _build(seed, scale, codec), lambda _b: None, ledger)
    streams = []
    for c, data in built:
        moments = Moments.of(codec.decompress_quantized(c), c.eps)
        shift = quantize_scalar(PREFIX_SCALAR, c.eps)
        streams.append(Stream(c, data.nbytes, moments, moments.negate_shift(shift)))
    return Corpus(streams, [data for _c, data in built], ledger)


def _reduce(c: SZOpsCompressed, name: str, prefixed: bool) -> float:
    if not prefixed:
        return float(getattr(ops, name)(c))
    return float(getattr(lazy(c).negate().scalar_add(PREFIX_SCALAR), name)())


def _pointwise(c: SZOpsCompressed) -> bytes:
    chain = lazy(c)
    for name, scalar in CHAIN:
        chain = chain.apply(name, scalar)
    return chain.materialize()


def _execute(corpus: Corpus, plan: list[Op], ledger: Ledger) -> None:
    for op in plan:
        stream = corpus.streams[op.stream]
        c = stream.container
        if op.kind != "pointwise":
            value = ledger.timed("reduce", _reduce, c, op.kind, op.prefixed)
            if value is not FAILED:
                want = (stream.prefixed if op.prefixed else stream.moments).value(op.kind)
                ledger.check(op.kind, lambda: matches(op.kind, value, want))
            continue
        out = ledger.timed("pointwise", _pointwise, c)
        if out is FAILED:
            continue
        blob = ledger.timed("put", out.to_bytes)
        if blob is FAILED:
            continue
        ledger.check("pointwise", lambda: blob == stream.chain_bytes)
        back = ledger.timed("get", SZOpsCompressed.from_bytes, blob)
        if back is not FAILED:
            ledger.check("get", lambda: back.content_fingerprint() == out.content_fingerprint())


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Report:
    corpus = _setup(seed, scale)
    n = len(corpus.streams)
    plan = schedule(seed, n, max(1, round(seconds * OPS_PER_SECOND)), tag=1)
    warmup = schedule(seed, n, WARMUP_OPS, tag=2)
    for i in sorted({op.stream for op in plan + warmup if op.kind == "pointwise"}):
        stream = corpus.streams[i]
        stream.chain_bytes = apply_chain(stream.container, CHAIN, fused=False).to_bytes()
    clear_cache()
    _execute(corpus, warmup, Ledger())

    def run_pass() -> tuple[Ledger, float]:
        ledger = Ledger()
        _execute(corpus, plan, ledger)
        ledger.close()
        return ledger, ledger.wall_s

    if trace:
        tracer, ledgers, counts, walls = traced_run(run_pass, cache_snapshot)
        counts.update(stream_planes([s.container for s in corpus.streams]))
        counts["ops"] = float(len(plan))
        return traced_report(tracer, counts, walls, ledgers)

    rounds = CodecRounds(SZOps(), corpus.fields, [s.container for s in corpus.streams], BOUND)
    ledger = Ledger()
    interleave(
        plan, rounds, CODEC_ROUNDS, lambda ops, _offset: _execute(corpus, ops, ledger), ledger
    )
    return end_to_end_report(
        ledger,
        corpus.setup,
        rounds.ledger,
        {i: s.raw_nbytes for i, s in enumerate(corpus.streams)},
        sum(s.container.compressed_nbytes for s in corpus.streams),
        {"ops": len(plan), "streams": n},
    )
