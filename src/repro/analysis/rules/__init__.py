"""Pluggable lint-rule registry (mirrors :mod:`repro.baselines.registry`).

Each rule is a :class:`RuleSpec`: an id, a one-line summary, a fix hint,
the scope tags it applies to, and a checker.  File rules see one parsed
module at a time through a :class:`RuleContext`; project rules see the
whole linted file set (SZL004 needs the op directory next to
``dispatch.py``).  Register new rules with :func:`register_rule` — the
linter, the CLI ``--select`` filter, and ``docs/ANALYSIS.md`` all iterate
the registry, so a registered rule is automatically wired everywhere.

Scope tags
----------
``ops``
    op-kernel code (``repro/core/ops/*``) — numeric rules about the
    quantized domain.
``ops-module``
    a registrable op module under ``core/ops/`` (not ``_``-private, not
    ``dispatch``) — module-convention rules (SZL005).
``codec``
    serialization / codec paths (``core``, ``bitstream``, ``encoding``,
    ``baselines``, ``transforms``).
``runtime``
    the runtime and parallel layers.

Files outside the ``repro`` package (ad-hoc lint targets, rule fixtures)
default to ``{"ops", "codec", "runtime"}`` and may override their tags
with a leading ``# szops-lint-scope: ops-module`` marker comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.analysis.findings import Finding, Severity

__all__ = [
    "RuleContext",
    "ProjectContext",
    "RuleSpec",
    "RULES",
    "register_rule",
    "all_rules",
    "terminal_name",
    "root_name",
    "contains_widening_cast",
    "dotted_parts",
]


@dataclass
class RuleContext:
    """Everything a file rule may inspect about one module."""

    path: Path
    source: str
    tree: ast.Module
    tags: frozenset[str]

    def finding(
        self,
        rule: str,
        node: ast.AST | int,
        message: str,
        hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Finding(
            rule=rule,
            path=str(self.path),
            line=line,
            message=message,
            hint=hint,
            severity=severity,
        )


@dataclass
class ProjectContext:
    """The whole linted file set, for cross-file rules."""

    paths: list[Path]
    sources: dict[Path, str] = field(default_factory=dict)


Checker = Callable[[RuleContext], list[Finding]]
ProjectChecker = Callable[[ProjectContext], list[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """One registered lint rule."""

    rule_id: str
    summary: str
    hint: str
    tags: frozenset[str]
    checker: Checker | None = None
    project_checker: ProjectChecker | None = None


RULES: dict[str, RuleSpec] = {}


def register_rule(spec: RuleSpec) -> RuleSpec:
    """Add a rule to the registry (last registration wins, like codecs)."""
    RULES[spec.rule_id] = spec
    return spec


def all_rules() -> list[RuleSpec]:
    """Registered rules in rule-id order."""
    return [RULES[k] for k in sorted(RULES)]


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def terminal_name(node: ast.AST) -> str | None:
    """The identifier a value expression terminates in, if any.

    ``blocks.const_outliers`` -> ``const_outliers``; ``q[sel]`` -> ``q``;
    calls and literals have no terminal name.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value)
    return None


def root_name(node: ast.AST) -> str | None:
    """The left-most identifier of an expression (``a.b.c[0]`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def dotted_parts(node: ast.AST) -> list[str]:
    """Attribute chain as parts: ``np.float32`` -> ``["np", "float32"]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


#: dtype spellings that widen quantized/int arithmetic out of harm's way.
_WIDENING_DTYPES = {"float64", "int64", "uint64", "f8", "i8", "u8", "<f8", "<i8"}


def _is_widening_dtype_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in _WIDENING_DTYPES:
        return True
    if isinstance(node, ast.Name) and node.id in _WIDENING_DTYPES:
        return True
    if isinstance(node, ast.Constant) and node.value in _WIDENING_DTYPES:
        return True
    return False


def contains_widening_cast(node: ast.AST) -> bool:
    """True when a subtree widens to float64/int64 before arithmetic.

    Recognizes ``x.astype(np.float64)`` / ``astype("i8")`` style casts,
    ``np.float64(x)`` / ``float(x)`` constructors, and ``math.fsum`` — the
    idioms the quantized-domain code uses to leave the overflow-prone
    integer lane.
    """
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            args = list(sub.args) + [kw.value for kw in sub.keywords]
            if any(_is_widening_dtype_expr(a) for a in args):
                return True
        parts = dotted_parts(func)
        if parts and parts[-1] in {"float64", "int64", "uint64", "fsum"}:
            return True
        if isinstance(func, ast.Name) and func.id == "float":
            return True
    return False


def iter_function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


# Import rule modules for their registration side effects (mirrors how
# baseline codecs self-register): keep these imports at the bottom so the
# helpers above exist when the rule modules load.
from repro.analysis.rules import numeric as _numeric  # noqa: E402,F401
from repro.analysis.rules import structure as _structure  # noqa: E402,F401
