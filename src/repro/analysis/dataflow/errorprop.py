"""SZL103: cross-check declared ``ERROR_PROPAGATION`` against the kernel.

Every op module declares how the operation transforms the compressor's
pointwise error bound::

    ERROR_PROPAGATION = {"scalar_multiply": "scaled"}

The declaration is load-bearing — ``dispatch.py`` surfaces it to users as
the op's error contract — so a declaration looser *or* tighter than the
kernel is a correctness bug.  This pass rederives the mode from the
kernel body by interval reasoning over the quantization primitives it
reaches, and flags mismatches.

Derivation (most to least specific; first match wins):

``computation``
    the kernel's return annotation is not ``SZOpsCompressed`` — the op
    leaves the compressed domain entirely (reductions, inner products),
    so the bound is a derived analytical bound, not ``eps`` itself.
``scaled``
    the kernel reaches ``requantize`` or builds the
    :class:`~repro.core.ops._partial.Requantize` step (directly or
    through module-local calls): bins are rescaled by the
    scalar factor and re-snapped, so the bound scales by ``|s|`` (plus
    half a new bin of re-quantization error).
``bounded-additive``
    the kernel combines two compressed operands (two
    ``SZOpsCompressed`` parameters) into a compressed result without
    requantizing: per-element errors add, so the result bound is
    ``eps_a + eps_b``.
``preserved``
    the kernel reaches an exact integer-domain shift primitive
    (``quantize_scalar`` / ``quantized_scalar_shift`` /
    ``shift_outliers``): bins move by an exact integer, the bin width is
    untouched, and the bound is carried through unchanged up to the
    scalar's own snap error.
``exact``
    none of the above: the kernel permutes or reinterprets stored bits
    (sign flips, metadata rewrites) and introduces no new error at all.

Modules whose ``ERROR_PROPAGATION`` is not a literal dict (``dispatch.py``
merges the per-module dicts with ``**``) are skipped — the per-module
declarations are the source of truth and each is checked where it lives.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.findings import Finding

__all__ = ["check_error_propagation", "derive_mode"]

#: Reaching one of these (by call-graph closure over module-local calls)
#: proves the kernel rescales bins: the error bound is *scaled*.
_SCALED_MARKERS = frozenset({"requantize", "Requantize"})

#: Reaching one of these proves an exact integer-domain shift: the error
#: bound is *preserved* (bin width untouched).
_PRESERVED_MARKERS = frozenset(
    {"quantize_scalar", "quantized_scalar_shift", "shift_outliers"}
)

_COMPRESSED_TYPE = "SZOpsCompressed"

_VALID_MODES = frozenset(
    {"exact", "preserved", "scaled", "bounded-additive", "computation"}
)


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """Terminal name of an annotation (``SZOpsCompressed`` in
    ``fmt.SZOpsCompressed`` or a bare name), or ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation, e.g. ``-> "SZOpsCompressed"``
        tail = node.value.rsplit(".", 1)[-1].strip()
        return tail or None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``SZOpsCompressed | float`` — a union is not the compressed type.
        return None
    return None


def _called_names(fn: ast.FunctionDef) -> set[str]:
    """Terminal names of every call inside ``fn`` (``f(...)`` → ``f``,
    ``mod.f(...)`` → ``f``)."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            out.add(func.id)
        elif isinstance(func, ast.Attribute):
            out.add(func.attr)
    return out


def _reachable_markers(
    fn: ast.FunctionDef,
    local_fns: dict[str, ast.FunctionDef],
    markers: frozenset[str],
) -> bool:
    """Does ``fn`` reach any marker name through module-local calls?"""
    seen: set[str] = set()
    stack = [fn]
    while stack:
        cur = stack.pop()
        for name in _called_names(cur):
            if name in markers:
                return True
            if name in local_fns and name not in seen:
                seen.add(name)
                stack.append(local_fns[name])
    return False


def _compressed_param_count(fn: ast.FunctionDef) -> int:
    count = 0
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _annotation_name(arg.annotation) == _COMPRESSED_TYPE:
            count += 1
    return count


def derive_mode(fn: ast.FunctionDef, local_fns: dict[str, ast.FunctionDef]) -> str:
    """Rederive the error-propagation mode of one kernel (see module doc)."""
    if _annotation_name(fn.returns) != _COMPRESSED_TYPE:
        return "computation"
    if _reachable_markers(fn, local_fns, _SCALED_MARKERS):
        return "scaled"
    if _compressed_param_count(fn) >= 2:
        return "bounded-additive"
    if _reachable_markers(fn, local_fns, _PRESERVED_MARKERS):
        return "preserved"
    return "exact"


def _literal_propagation(
    tree: ast.Module,
) -> Optional[tuple[dict[str, tuple[str, int]], int]]:
    """The module's literal ``ERROR_PROPAGATION`` dict as
    ``{op: (mode, key_lineno)}`` plus the assignment line, or ``None``
    when absent or not a pure literal (merged dicts are skipped)."""
    for stmt in tree.body:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "ERROR_PROPAGATION" for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return None
        out: dict[str, tuple[str, int]] = {}
        for key, val in zip(value.keys, value.values):
            if (
                key is None  # ``**spread`` entry — not a pure literal
                or not isinstance(key, ast.Constant)
                or not isinstance(key.value, str)
                or not isinstance(val, ast.Constant)
                or not isinstance(val.value, str)
            ):
                return None
            out[key.value] = (val.value, key.lineno)
        return out, stmt.lineno
    return None


def _resolve_kernel(
    op_name: str, local_fns: dict[str, ast.FunctionDef]
) -> Optional[ast.FunctionDef]:
    """The kernel implementing ``op_name``: exact name match, else the
    module's single public function (``negate.py`` declares the op
    ``"negation"`` but names the function ``negate``)."""
    if op_name in local_fns:
        return local_fns[op_name]
    public = [f for n, f in local_fns.items() if not n.startswith("_")]
    if len(public) == 1:
        return public[0]
    return None


def check_error_propagation(
    source_path: str,
    source: str,
    tree: Optional[ast.Module] = None,
) -> list[Finding]:
    """Run the SZL103 declaration cross-check over one module.

    ``tree`` lets the driver share one parse across every pass.
    """
    if tree is None:
        try:
            tree = ast.parse(source, filename=source_path)
        except SyntaxError:
            return []
    parsed = _literal_propagation(tree)
    if parsed is None:
        return []
    declared, decl_line = parsed
    local_fns = {
        stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
    }
    findings: list[Finding] = []
    for op_name, (mode, line) in declared.items():
        if mode not in _VALID_MODES:
            findings.append(
                Finding(
                    rule="SZL103",
                    path=source_path,
                    line=line,
                    message=(
                        f"unknown error-propagation mode {mode!r} declared "
                        f"for op {op_name!r}"
                    ),
                    hint="valid modes: " + ", ".join(sorted(_VALID_MODES)),
                )
            )
            continue
        kernel = _resolve_kernel(op_name, local_fns)
        if kernel is None:
            findings.append(
                Finding(
                    rule="SZL103",
                    path=source_path,
                    line=line,
                    message=(
                        f"cannot resolve a kernel for declared op {op_name!r}: "
                        "no function of that name and the module does not have "
                        "exactly one public function"
                    ),
                    hint="name the kernel after the op, or keep one public "
                    "kernel per single-op module",
                )
            )
            continue
        derived = derive_mode(kernel, local_fns)
        if derived != mode:
            findings.append(
                Finding(
                    rule="SZL103",
                    path=source_path,
                    line=line,
                    message=(
                        f"ERROR_PROPAGATION declares {mode!r} for op "
                        f"{op_name!r} but the kernel {kernel.name!r} derives "
                        f"{derived!r}"
                    ),
                    hint=(
                        "fix whichever is wrong: the declaration misleads "
                        "every error-bound consumer downstream of dispatch"
                    ),
                )
            )
    del decl_line  # anchor per-key; the assignment line is not reported
    return findings
