"""Dataflow analysis engine: abstract interpretation for SZOps invariants.

The ``szops-lint`` rules are syntactic: SZL001 pattern-matches AST
shapes ("an AugAssign on a quantized name without a widening cast") and
must be suppressed at every site that *is* guarded, because a pattern
matcher cannot see the guard.  This package adds *dataflow-based*
verification of the hot invariants: a per-function abstract interpreter
over the CPython AST (:mod:`~repro.analysis.dataflow.engine`) tracks
value ranges, dtypes and symbolic guard facts through assignments,
branches, loops and module-local calls (with call summaries), and the
passes below share it:

``SZL101`` / ``SZL102`` (:mod:`~repro.analysis.dataflow.ranges`)
    value-range + dtype lattice proofs that quantized int64 arithmetic
    stays inside int64 given the ``|q| < Q_LIMIT`` invariant, and that
    float → int casts are guarded (finite + bounded).  They complement
    the syntactic SZL001/SZL002, which still run: each pair sees shapes
    the other does not.
``SZL103`` (:mod:`~repro.analysis.dataflow.errorprop`)
    rederives each registered operation's worst-case error-bound
    transformer from its kernel (composing the symbolic error effects of
    the quantization primitives it reaches) and cross-checks the module's
    declared ``ERROR_PROPAGATION`` mode.
``LCK001`` / ``LCK002`` (:mod:`~repro.analysis.dataflow.lockorder`)
    one lexical held-lock walk: every mutation of a declared
    ``_GUARDED_ATTRS`` attribute must hold ``self._lock`` (LCK001), and
    the acquires-while-holding relation over every ``threading.Lock`` in
    the analyzed files must be acyclic — including self-cycles, since
    ``threading.Lock`` is not reentrant (LCK002).
``SHM001`` / ``SHM002`` (:mod:`~repro.analysis.dataflow.shmlife`)
    tracks ``ShmArena`` / ``SharedMemory(create=True)`` segments through
    acquire, use and release along all paths *including exception edges*,
    flagging use-after-release and leak-on-raise/-on-return.
``ASY001``–``ASY005`` (:mod:`~repro.analysis.dataflow.asyncsafety`)
    async-safety for the service layer: the engine models every
    ``await`` / ``async with`` / ``async for`` step as an interleaving
    point, and the pass checks await-point atomicity of guarded
    attributes, sync locks held across awaits, blocking calls on the
    event-loop thread, dropped coroutine/task handles, and deadline
    propagation (unbounded awaits outside ``asyncio.wait_for``).
``NPA001``–``NPA006`` (:mod:`~repro.analysis.dataflow.npa`)
    NumPy array semantics for the kernel layer: an array-value lattice
    (buffer identity + view provenance, dtype/itemsize layout, proven
    element-count divisors, extents, writability, initialized bit)
    proves in-place writes don't alias live inputs, ``.view()``
    reinterpretations byte-check, index writes stay in bounds, read-only
    buffers aren't mutated, ``np.empty`` contents aren't read before the
    first write, and integer narrowing doesn't silently wrap.
``TNT001`` / ``TNT002`` (:mod:`~repro.analysis.dataflow.taint`)
    untrusted-input taint on ``wire``-tagged files: bytes read from the
    network (and lengths/keys derived from them) are tainted until a
    bounds check or membership/enum validation clears them; tainted
    sizes reaching allocations and tainted keys reaching dispatch are
    rejected — mechanically proving the protocol module's frame-cap and
    MAX_STEPS discipline.

All passes emit the shared :class:`~repro.analysis.findings.Finding`
type, honor ``# szops: ignore[...]`` suppressions (applied by the
:func:`~repro.analysis.linter.analyze_paths` driver), and run on every
``python -m repro.cli lint``.  Soundness
caveats (what the engine deliberately does not model) are documented in
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from repro.analysis.dataflow.asyncsafety import asyncsafety_findings
from repro.analysis.dataflow.errorprop import check_error_propagation
from repro.analysis.dataflow.lattice import INT64_MAX, INT64_MIN, Interval, Value
from repro.analysis.dataflow.lockorder import lockorder_findings
from repro.analysis.dataflow.npa import npa_findings
from repro.analysis.dataflow.ranges import range_findings
from repro.analysis.dataflow.shmlife import shm_findings
from repro.analysis.dataflow.taint import taint_findings

__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "Interval",
    "Value",
    "asyncsafety_findings",
    "check_error_propagation",
    "lockorder_findings",
    "npa_findings",
    "range_findings",
    "shm_findings",
    "taint_findings",
    "DATAFLOW_RULES",
]

#: Rule ids contributed by the dataflow suite (the driver uses this to
#: compute the active-rule set for unused-suppression accounting).
DATAFLOW_RULES = frozenset(
    {
        "SZL101",
        "SZL102",
        "SZL103",
        "LCK001",
        "LCK002",
        "SHM001",
        "SHM002",
        "ASY001",
        "ASY002",
        "ASY003",
        "ASY004",
        "ASY005",
        "TNT001",
        "TNT002",
        "NPA001",
        "NPA002",
        "NPA003",
        "NPA004",
        "NPA005",
        "NPA006",
    }
)
