"""Numeric-safety rules: SZL001 (int overflow), SZL002 (narrowing), SZL003 (NaN).

These rules encode the error-bound contract's failure modes.  The
compressed-domain ops work on int64 *quantized* planes whose values the
pipeline guards to |q| < 2^62 (``repro.core.ops._partial.Q_LIMIT``); an
unwidened integer product or an unguarded shift can silently wrap and
decode to garbage that still looks like a valid stream.  Narrowing a
float64 intermediate to float32 mid-pipeline can push a reconstruction
past the bound by an ulp.  NaN-unsafe comparisons let a NaN slip through
an overflow guard (the scalar-mul NaN-product bug PR 1 fixed was exactly
this shape).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    RuleContext,
    RuleSpec,
    contains_widening_cast,
    dotted_parts,
    register_rule,
    root_name,
    terminal_name,
)

#: Identifiers the repo uses for quantized-domain integer planes.
QUANTIZED_NAMES = frozenset(
    {"q", "q_new", "q_stored", "outliers", "const_outliers", "rho"}
)

#: AugAssign / BinOp operators that can overflow int64.
_OVERFLOW_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.LShift)


def _is_quantized_operand(node: ast.AST) -> bool:
    return terminal_name(node) in QUANTIZED_NAMES


def _check_szl001(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
            if any(_is_quantized_operand(op) for op in operands) and not any(
                contains_widening_cast(op) for op in operands
            ):
                findings.append(
                    ctx.finding(
                        "SZL001",
                        node,
                        "integer multiplication on a quantized-domain plane "
                        "without a widening cast can wrap int64 silently",
                        hint="widen one operand with .astype(np.float64) (or "
                        "np.int64 from a narrower type), or guard the range "
                        "and suppress with '# szops: ignore[SZL001]'",
                    )
                )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, _OVERFLOW_OPS):
            if _is_quantized_operand(node.target) and not contains_widening_cast(
                node.value
            ):
                findings.append(
                    ctx.finding(
                        "SZL001",
                        node,
                        "in-place integer arithmetic on a quantized-domain "
                        "plane without an overflow guard",
                        hint="bound the operand against Q_LIMIT before the "
                        "shift, then suppress with '# szops: ignore[SZL001]'",
                    )
                )
    return findings


register_rule(
    RuleSpec(
        rule_id="SZL001",
        summary="overflow-prone integer arithmetic on quantized arrays "
        "without a widening cast",
        hint="widen to float64/int64 or guard against Q_LIMIT",
        tags=frozenset({"ops", "runtime", "codec"}),
        checker=_check_szl001,
    )
)


# ---------------------------------------------------------------------------
# SZL002 — implicit float64 -> float32 narrowing
# ---------------------------------------------------------------------------

_F32_SPELLINGS = {"float32", "f4", "<f4", ">f4"}


def _is_f32_dtype_expr(node: ast.AST, maybe_f32_names: set[str]) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "float32":
        return True
    if isinstance(node, ast.Constant) and node.value in _F32_SPELLINGS:
        return True
    if isinstance(node, ast.Name) and node.id in maybe_f32_names:
        return True
    return False


def _collect_maybe_f32_names(tree: ast.Module) -> set[str]:
    """Names assigned from expressions that can evaluate to float32.

    Catches the codec idiom ``ftype = np.float32 if ... else np.float64``:
    a later ``computed.astype(ftype)`` is a conditional narrowing site.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None:
            continue
        mentions_f32 = any(
            (isinstance(sub, ast.Attribute) and sub.attr == "float32")
            or (isinstance(sub, ast.Constant) and sub.value in _F32_SPELLINGS)
            for sub in ast.walk(value)
        )
        if not mentions_f32:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_computed_expr(node: ast.AST) -> bool:
    """A value produced by arithmetic/calls rather than loaded from storage.

    Narrowing a *stored* array at an I/O boundary is legitimate; narrowing
    a freshly computed float64 expression discards precision the error
    bound may need.
    """
    return isinstance(node, (ast.BinOp, ast.Call, ast.UnaryOp))


def _check_szl002(ctx: RuleContext) -> list[Finding]:
    maybe_f32 = _collect_maybe_f32_names(ctx.tree)
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # computed.astype(<f32-ish>)
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            dtype_args = list(node.args) + [kw.value for kw in node.keywords]
            if any(_is_f32_dtype_expr(a, maybe_f32) for a in dtype_args):
                if _is_computed_expr(func.value):
                    findings.append(
                        ctx.finding(
                            "SZL002",
                            node,
                            "float64 arithmetic result narrowed to float32 "
                            "mid-pipeline; the dropped ulps can push a "
                            "reconstruction past the error bound",
                            hint="keep the intermediate in float64 and account "
                            "for the narrowing error before comparing against "
                            "eps, or narrow only at the I/O boundary",
                        )
                    )
            continue
        # np.float32(computed) and np.asarray(computed, dtype=float32)
        parts = dotted_parts(func)
        if parts and parts[-1] == "float32":
            if any(_is_computed_expr(a) for a in node.args):
                findings.append(
                    ctx.finding(
                        "SZL002",
                        node,
                        "computed float64 value wrapped in np.float32()",
                        hint="stay in float64 until the I/O boundary",
                    )
                )
        elif parts and parts[-1] in {"asarray", "ascontiguousarray", "array"}:
            dtype_kwargs = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if any(_is_f32_dtype_expr(a, maybe_f32) for a in dtype_kwargs) and any(
                _is_computed_expr(a) for a in node.args
            ):
                findings.append(
                    ctx.finding(
                        "SZL002",
                        node,
                        "computed expression materialized directly as float32",
                        hint="compute in float64, then narrow at the boundary",
                    )
                )
    return findings


register_rule(
    RuleSpec(
        rule_id="SZL002",
        summary="implicit float64 -> float32 narrowing of a computed value",
        hint="narrow only at I/O boundaries; account for the cast error",
        tags=frozenset({"ops", "codec", "runtime"}),
        checker=_check_szl002,
    )
)


# ---------------------------------------------------------------------------
# SZL003 — NaN-unsafe direct comparisons in op kernels
# ---------------------------------------------------------------------------

#: Calls whose results are float-domain (can be NaN) in kernel code.
_FLOAT_PRODUCERS = frozenset(
    {
        "rint",
        "sqrt",
        "floor",
        "ceil",
        "dot",
        "fsum",
        "float",
        "float64",
        "dequantize",
        "dequantize_scalar",
        "mean",
        "sum",
        "std",
        "var",
    }
)

_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

_ORDERED_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _nan_rejecting_compares(fn: ast.AST) -> set[int]:
    """Ids of comparisons a NaN makes the enclosing guard *fail*.

    In ``not (a < L)`` and ``not (a < L and b > -L)`` a NaN operand makes
    its ordered comparison False, the conjunction False and the negation
    True, so the guard fires: the NaN-propagating ``max``/``min`` range
    guard that SZL102 proves.  A disjunction under the ``not`` is not
    included — another True disjunct would let the NaN through.
    """
    safe: set[int] = set()
    for node in ast.walk(fn):
        if not (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)):
            continue
        inner = node.operand
        terms = (
            inner.values
            if isinstance(inner, ast.BoolOp) and isinstance(inner.op, ast.And)
            else [inner]
        )
        for term in terms:
            if isinstance(term, ast.Compare) and all(
                isinstance(op, _ORDERED_OPS) for op in term.ops
            ):
                safe.add(id(term))
    return safe


def _produces_float(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            parts = dotted_parts(sub.func)
            if parts and parts[-1] in _FLOAT_PRODUCERS:
                return True
    return False


#: Names that are modules, not data, when they root an attribute chain.
_MODULE_ROOTS = frozenset({"np", "numpy", "math"})


def _module_constants(tree: ast.Module) -> set[str]:
    """Upper-case names bound at module level (``Q_LIMIT``): constants."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.ImportFrom):
            names.update(a.asname or a.name for a in stmt.names)
    return {n for n in names if n.isupper()}


def _data_names(node: ast.AST) -> set[str]:
    """Names ``node`` reads as values: not called functions or modules."""
    funcs = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and id(n) not in funcs and n.id not in _MODULE_ROOTS
    }


def _check_szl003(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    constants = _module_constants(ctx.tree)
    for fn in [
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]:
        float_names: set[str] = set()
        guarded: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _produces_float(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        float_names.add(target.id)
            if isinstance(node, ast.Call):
                parts = dotted_parts(node.func)
                if parts and parts[-1] in {"isnan", "isfinite", "isclose", "nan_to_num"}:
                    for arg in node.args:
                        name = root_name(arg)
                        if name:
                            guarded.add(name)

        def operand_unsafe(node: ast.AST) -> bool:
            # Only data names carry NaN into an operand: one NaN-checked in
            # this function (``np.abs(x).max()`` after ``np.isfinite(x)``)
            # or a module constant (``float(Q_LIMIT)``) cannot.
            if _data_names(node) <= guarded | constants:
                return False
            return root_name(node) in float_names or _produces_float(node)

        nan_rejecting = _nan_rejecting_compares(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare) or id(node) in nan_rejecting:
                continue
            if not all(isinstance(op, _COMPARE_OPS) for op in node.ops):
                continue
            if any(operand_unsafe(o) for o in [node.left, *node.comparators]):
                findings.append(
                    ctx.finding(
                        "SZL003",
                        node,
                        "direct comparison on a float-domain value in an op "
                        "kernel; NaN compares False and slips past guards",
                        hint="check np.isnan/np.isfinite first (NaN fails "
                        "every ordered comparison), or suppress with a "
                        "justification when NaN is impossible by construction",
                    )
                )
    return findings


register_rule(
    RuleSpec(
        rule_id="SZL003",
        summary="NaN-unsafe direct comparison in an op kernel",
        hint="guard with np.isnan/np.isfinite before comparing",
        tags=frozenset({"ops"}),
        checker=_check_szl003,
    )
)
