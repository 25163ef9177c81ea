"""Operation registry and dispatch for the seven SZOps operations.

Table II of the paper enumerates the supported operations together with
their type (univariate operation vs. univariate reduction) and result type
(compression-as-output vs. computation-as-output).  This module encodes
that table as data so the workflow drivers, the benchmark harness, and the
Table V assertions can iterate the operations uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import OperationError
from repro.core.format import SZOpsCompressed
from repro.core.ops import multivariate
from repro.core.ops.negate import ERROR_PROPAGATION as _NEGATE_PROPAGATION
from repro.core.ops.negate import negate
from repro.core.ops.reductions import ERROR_PROPAGATION as _REDUCE_PROPAGATION
from repro.core.ops.reductions import maximum, mean, minimum, std, variance
from repro.core.ops.scalar_add import ERROR_PROPAGATION as _SHIFT_PROPAGATION
from repro.core.ops.scalar_add import scalar_add, scalar_subtract
from repro.core.ops.scalar_mul import ERROR_PROPAGATION as _SCALE_PROPAGATION
from repro.core.ops.scalar_mul import scalar_multiply
from repro.parallel.backends import ExecutionBackend

__all__ = [
    "OpSpec",
    "BivariateOpSpec",
    "OPERATIONS",
    "BIVARIATE_OPERATIONS",
    "FUSABLE_OPERATIONS",
    "CHAIN_REDUCTIONS",
    "apply_operation",
    "apply_bivariate",
    "apply_chain",
    "normalize_chain",
    "operation_names",
]

#: Error-bound propagation mode of every registered operation, collected
#: from the op modules' ERROR_PROPAGATION declarations (lint rule SZL005
#: keeps the declarations present and well-formed at the source).
ERROR_PROPAGATION: dict[str, str] = {
    **_NEGATE_PROPAGATION,
    **_SHIFT_PROPAGATION,
    **_SCALE_PROPAGATION,
    **_REDUCE_PROPAGATION,
    **multivariate.ERROR_PROPAGATION,
}


@dataclass(frozen=True)
class OpSpec:
    """Metadata row of Table II plus the executable kernel.

    Attributes
    ----------
    name : canonical operation name.
    kind : ``"operation"`` (pointwise) or ``"reduction"``.
    result : ``"compression"`` (a new compressed stream) or
        ``"computation"`` (a scalar).
    space : ``"full"`` (fully compressed space — no payload touched),
        ``"partial"`` (partial decompression to the quantized domain).
    needs_scalar : whether the kernel takes a scalar operand.
    fn : the kernel; signature ``fn(c)`` or ``fn(c, s)``.
    error_propagation : how the operation propagates the stream's error
        bound, sourced from the op module's ERROR_PROPAGATION declaration
        (``exact`` / ``preserved`` / ``scaled`` / ``bounded-additive`` /
        ``computation``; see docs/ANALYSIS.md).
    """

    name: str
    kind: str
    result: str
    space: str
    needs_scalar: bool
    fn: Callable[..., Any]
    error_propagation: str = "computation"


def _spec(name: str, kind: str, result: str, space: str, needs_scalar: bool, fn) -> OpSpec:
    return OpSpec(name, kind, result, space, needs_scalar, fn, ERROR_PROPAGATION[name])


OPERATIONS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in [
        _spec("negation", "operation", "compression", "full", False, negate),
        _spec("scalar_add", "operation", "compression", "full", True, scalar_add),
        _spec(
            "scalar_subtract",
            "operation",
            "compression",
            "full",
            True,
            scalar_subtract,
        ),
        _spec(
            "scalar_multiply",
            "operation",
            "compression",
            "partial",
            True,
            scalar_multiply,
        ),
        _spec("mean", "reduction", "computation", "partial", False, mean),
        _spec("variance", "reduction", "computation", "partial", False, variance),
        _spec("std", "reduction", "computation", "partial", False, std),
    ]
}


@dataclass(frozen=True)
class BivariateOpSpec:
    """A registered two-stream operation (Section VII future work).

    Same registry idiom as :class:`OpSpec`, but the kernel takes two
    compressed operands sharing geometry and error bound.
    """

    name: str
    result: str
    space: str
    error_propagation: str
    fn: Callable[[SZOpsCompressed, SZOpsCompressed], Any]


BIVARIATE_OPERATIONS: dict[str, BivariateOpSpec] = {
    spec.name: spec
    for spec in [
        BivariateOpSpec(
            "add", "compression", "partial", ERROR_PROPAGATION["add"], multivariate.add
        ),
        BivariateOpSpec(
            "subtract",
            "compression",
            "partial",
            ERROR_PROPAGATION["subtract"],
            multivariate.subtract,
        ),
        BivariateOpSpec(
            "dot", "computation", "partial", ERROR_PROPAGATION["dot"], multivariate.dot
        ),
        BivariateOpSpec(
            "l2_distance",
            "computation",
            "partial",
            ERROR_PROPAGATION["l2_distance"],
            multivariate.l2_distance,
        ),
        BivariateOpSpec(
            "cosine_similarity",
            "computation",
            "partial",
            ERROR_PROPAGATION["cosine_similarity"],
            multivariate.cosine_similarity,
        ),
    ]
}


def apply_bivariate(
    a: SZOpsCompressed, b: SZOpsCompressed, name: str
) -> SZOpsCompressed | float:
    """Apply a named two-stream operation (add/subtract/distances)."""
    try:
        spec = BIVARIATE_OPERATIONS[name]
    except KeyError:
        raise OperationError(
            f"unknown bivariate operation {name!r}; valid: "
            f"{', '.join(BIVARIATE_OPERATIONS)}"
        ) from None
    return spec.fn(a, b)


def operation_names() -> list[str]:
    """The seven operation names, in the paper's Table II order."""
    return list(OPERATIONS)


def apply_operation(
    c: SZOpsCompressed, name: str, scalar: float | None = None
) -> SZOpsCompressed | float:
    """Apply a named operation to a compressed stream.

    Returns either a new :class:`SZOpsCompressed` (compression-as-output)
    or a Python float (computation-as-output), per Table II.
    """
    try:
        spec = OPERATIONS[name]
    except KeyError:
        raise OperationError(
            f"unknown operation {name!r}; valid: {', '.join(OPERATIONS)}"
        ) from None
    if spec.needs_scalar:
        if scalar is None:
            raise OperationError(f"operation {name!r} requires a scalar operand")
        return spec.fn(c, scalar)
    if scalar is not None:
        raise OperationError(f"operation {name!r} takes no scalar operand")
    return spec.fn(c)


# ---------------------------------------------------------------------------
# fusion-aware chain dispatch
# ---------------------------------------------------------------------------

#: Pointwise operations the lazy runtime composes into one pending
#: ``(a·x + b)``-style transform (see :mod:`repro.runtime.lazy`).
FUSABLE_OPERATIONS = frozenset(
    {"negation", "scalar_add", "scalar_subtract", "scalar_multiply"}
)

#: Reductions accepted as the terminal step of a chain.  ``minimum`` /
#: ``maximum`` are not Table II rows but use the same partial-decode
#: machinery, so chains may end on them too.
CHAIN_REDUCTIONS: dict[str, Callable[[SZOpsCompressed], float]] = {
    "mean": mean,
    "variance": variance,
    "std": std,
    "minimum": minimum,
    "maximum": maximum,
}

def normalize_chain(
    steps: Iterable,
) -> list[tuple[str, float | None]]:
    """Validate a chain spec into ``[(name, scalar), ...]``.

    Accepts bare names (``"negation"``), ``(name, scalar)`` pairs, and
    ``"name=scalar"`` strings (the CLI syntax).  Reductions are only valid
    as the final step; scalar arity is checked against the op table.
    """
    normalized: list[tuple[str, float | None]] = []
    for step in steps:
        if isinstance(step, str):
            name, sep, text = step.partition("=")
            if sep:
                try:
                    scalar = float(text)
                except ValueError:
                    raise OperationError(
                        f"bad scalar in chain step {step!r}"
                    ) from None
            else:
                scalar = None
        else:
            try:
                name, scalar = step
            except (TypeError, ValueError):
                raise OperationError(
                    f"chain steps must be 'name', 'name=scalar' or "
                    f"(name, scalar); got {step!r}"
                ) from None
        if name in CHAIN_REDUCTIONS:
            if scalar is not None:
                raise OperationError(f"reduction {name!r} takes no scalar operand")
        else:
            try:
                spec = OPERATIONS[name]
            except KeyError:
                valid = ", ".join(dict.fromkeys([*OPERATIONS, *CHAIN_REDUCTIONS]))
                raise OperationError(
                    f"unknown operation {name!r}; valid: {valid}"
                ) from None
            if spec.needs_scalar and scalar is None:
                raise OperationError(f"operation {name!r} requires a scalar operand")
            if not spec.needs_scalar and scalar is not None:
                raise OperationError(f"operation {name!r} takes no scalar operand")
        normalized.append((name, scalar))
    for i, (name, _) in enumerate(normalized):
        if name in CHAIN_REDUCTIONS and i != len(normalized) - 1:
            raise OperationError(
                f"reduction {name!r} must be the final step of a chain"
            )
    return normalized


def apply_chain(
    c: SZOpsCompressed,
    steps: Sequence,
    fused: bool = True,
    executor: ExecutionBackend | None = None,
) -> SZOpsCompressed | float:
    """Apply a chain of operations, fusing pointwise ops when possible.

    With ``fused=True`` (default) the pointwise prefix is composed lazily by
    :class:`repro.runtime.lazy.LazyStream` — one decode and at most one
    encode for the whole chain; a terminal reduction skips the encode
    entirely.  ``fused=False`` replays the exact same chain eagerly, one
    operation at a time (the pre-runtime behavior; results are identical).
    ``executor`` (an :class:`~repro.parallel.backends.ExecutionBackend`)
    runs a fused terminal reduction as chunked partial moments on that
    backend; ``None`` sums them inline.
    """
    normalized = normalize_chain(steps)
    if not fused:
        result: SZOpsCompressed | float = c
        for name, scalar in normalized:
            if name in CHAIN_REDUCTIONS:
                result = CHAIN_REDUCTIONS[name](result)
            else:
                result = apply_operation(result, name, scalar)
        return result

    from repro.runtime.lazy import LazyStream

    chain = LazyStream(c)
    for name, scalar in normalized:
        if name in CHAIN_REDUCTIONS:
            return getattr(chain, name)(executor=executor)
        chain = chain.apply(name, scalar)
    return chain.materialize()
