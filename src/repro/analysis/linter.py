"""``szops-lint``: the one driver for every source-analysis pass.

The driver owns everything rule-independent: file discovery, scope-tag
computation, the suppression syntax, and report assembly.
:func:`analyze_paths` runs the SZL rule registry
(:mod:`repro.analysis.rules`, which sees parsed modules only) together
with the passes of :mod:`repro.analysis.dataflow`; :func:`lint_source`
runs the rule registry alone on one in-memory module.

Suppressions
------------
A finding is suppressed by a trailing comment on its line::

    out.outliers += rho  # szops: ignore[SZL001] -- shift guarded above

``# szops: ignore`` without a bracket suppresses every rule on that line.
Suppressions are deliberately line-granular: a blanket file-level opt-out
would defeat the point of encoding invariants as rules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.rules import ProjectContext, RuleContext, RuleSpec, all_rules

__all__ = [
    "analyze_paths",
    "lint_source",
    "discover_files",
    "default_target",
]

_SUPPRESS_RE = re.compile(
    r"#\s*szops:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)
_SCOPE_MARKER_RE = re.compile(r"#\s*szops-lint-scope:[ \t]*(?P<tags>[\w, \t-]+)")

#: Default tags for files linted outside the repro package (fixtures,
#: ad-hoc targets): all expression-level scopes, but not the module
#: convention scope — a loose file must opt into ``ops-module`` with a
#: ``# szops-lint-scope: ops-module`` marker.
_LOOSE_FILE_TAGS = frozenset({"ops", "codec", "runtime", "wire"})

_CODEC_DIRS = {"core", "bitstream", "encoding", "baselines", "transforms"}
_RUNTIME_DIRS = {"runtime", "parallel", "service", "cluster"}
#: Directories whose files sit on the network trust boundary: the taint
#: pass (TNT001/TNT002) only runs on ``wire``-tagged files.
_WIRE_DIRS = {"service", "cluster"}


def default_target() -> Path:
    """The installed ``repro`` package directory (cwd-independent)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _package_relative(path: Path) -> tuple[str, ...] | None:
    """Path parts below the ``repro`` package, or ``None`` for loose files."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1 :]
    return None


def scope_tags(path: Path, source: str) -> frozenset[str]:
    """Scope tags of one file (see :mod:`repro.analysis.rules`)."""
    # Search the first five physical lines only: the marker is a header.
    head = "\n".join(source.splitlines()[:5])
    marker = _SCOPE_MARKER_RE.search(head)
    if marker:
        tags = {t.strip() for t in re.split(r"[,\s]+", marker.group("tags")) if t.strip()}
        return frozenset(tags)
    rel = _package_relative(path)
    if rel is None:
        return _LOOSE_FILE_TAGS
    tags = set()
    if len(rel) >= 2 and rel[0] == "core" and rel[1] == "ops":
        tags |= {"ops", "codec"}
        name = rel[-1]
        if (
            name.endswith(".py")
            and not name.startswith("_")
            and name not in {"dispatch.py", "__init__.py"}
        ):
            tags.add("ops-module")
    elif rel and rel[0] in _CODEC_DIRS:
        tags.add("codec")
    elif rel and rel[0] in _RUNTIME_DIRS:
        tags.add("runtime")
    if rel and rel[0] in _WIRE_DIRS:
        tags.add("wire")
    return frozenset(tags)


def _comment_lines(source: str) -> list[tuple[int, str]]:
    """``(lineno, text)`` of every real comment token in ``source``.

    Tokenizing (rather than scanning physical lines) keeps suppression
    *examples* inside docstrings and hint strings from acting — or being
    accounted — as suppressions.  Falls back to a plain line scan when the
    file does not tokenize (it then also fails SZL000 anyway).
    """
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Per-line suppressions; ``None`` means every rule is suppressed."""
    out: dict[int, set[str] | None] = {}
    for lineno, text in _comment_lines(source):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            ids = {r.strip() for r in rules.split(",") if r.strip()}
            prev = out.get(lineno, set())
            # An earlier blanket suppression on this line wins outright.
            out[lineno] = None if prev is None else prev | ids
    return out


def _apply_suppressions(
    findings: list[Finding],
    suppressions: dict[int, set[str] | None],
    used: set[tuple[int, str]] | None = None,
) -> list[Finding]:
    """Drop suppressed findings; record hits as ``(line, rule)`` in ``used``."""
    kept = []
    for f in findings:
        rule_set = suppressions.get(f.line, set())
        if rule_set is None or (rule_set and f.rule in rule_set):
            if used is not None:
                used.add((f.line, f.rule))
            continue
        kept.append(f)
    return kept


def _selected(rules: Iterable[RuleSpec], select: Sequence[str] | None) -> list[RuleSpec]:
    if select is None:
        return list(rules)
    wanted = {s.strip() for s in select}
    return [r for r in rules if r.rule_id in wanted]


def _lint_file_raw(
    source: str,
    path: Path,
    select: Sequence[str] | None = None,
    tags: frozenset[str] | None = None,
    tree: ast.Module | None = None,
) -> list[Finding]:
    """File-level rule findings with no suppression applied.

    ``tree`` lets the caller share one parse across every pass over the
    same file (the ``analyze_paths`` driver parses each file exactly
    once).
    """
    if tags is None:
        tags = scope_tags(path, source)
    if tree is None:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Finding(
                    rule="SZL000",
                    path=str(path),
                    line=exc.lineno or 0,
                    message=f"file does not parse: {exc.msg}",
                    hint="fix the syntax error; unparseable files cannot be "
                    "checked against any invariant",
                )
            ]
    ctx = RuleContext(path=path, source=source, tree=tree, tags=tags)
    findings: list[Finding] = []
    for rule in _selected(all_rules(), select):
        if rule.checker is None:
            continue
        if not (rule.tags & tags):
            continue
        findings.extend(rule.checker(ctx))
    return findings


def lint_source(
    source: str,
    path: Path | str = "<memory>",
    select: Sequence[str] | None = None,
    tags: frozenset[str] | None = None,
) -> list[Finding]:
    """Lint one module's source text with the file-level rules."""
    path = Path(path)
    raw = _lint_file_raw(source, path, select=select, tags=tags)
    return _apply_suppressions(raw, _suppressions(source))


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into the sorted set of ``.py`` targets."""
    out: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            out.update(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            out.add(path)
    return sorted(out)


def analyze_paths(
    paths: Sequence[Path | str] | None = None,
    select: Sequence[str] | None = None,
    changed: Sequence[Path | str] | None = None,
) -> list[Finding]:
    """Run every analysis pass over files/directories (default: ``repro``).

    Each file is parsed once and that tree feeds the syntactic SZL rules,
    the dataflow passes (SZL101/102, SZL103, SHM, ASY, TNT, NPA) and the
    cross-file passes (the SZL004 project rule, LCK001/LCK002).  Every
    finding goes through the same per-line suppression machinery, which
    records the suppression comments that fired; on a run without
    ``select`` the idle ones are reported as ``SZL099``.

    ``changed`` enables incremental mode (``lint --changed``): every
    target is still read and parsed — the cross-file passes need the
    whole picture — but the per-file passes run only on the listed
    files, and the report (including SZL099 stale-suppression accounting)
    is restricted to them.  Per-file passes are module-local, so the
    result equals a full run's findings filtered to the changed files.
    """
    # Local import: ``repro.analysis`` is imported by the service's store
    # (for the stream verifier), which must not pay for the interpreter.
    from repro.analysis.dataflow import (
        DATAFLOW_RULES,
        asyncsafety_findings,
        check_error_propagation,
        lockorder_findings,
        npa_findings,
        range_findings,
        shm_findings,
        taint_findings,
    )
    from repro.analysis.dataflow.engine import ModuleContext

    targets = discover_files(
        [Path(p) for p in paths] if paths else [default_target()]
    )
    wanted = None if select is None else {s.strip() for s in select}
    changed_set = (
        None
        if changed is None
        else {str(Path(p).resolve()) for p in changed}
    )

    def _want(f: Finding) -> bool:
        return wanted is None or f.rule in wanted

    def _is_changed(path: Path) -> bool:
        return changed_set is None or str(path.resolve()) in changed_set

    report: list[Finding] = []
    sources: dict[Path, str] = {}
    trees: dict[str, ast.Module] = {}
    raw_by_path: dict[str, list[Finding]] = {}
    for path in targets:
        try:
            source = path.read_text()
        except OSError as exc:
            report.append(
                Finding(
                    rule="SZL000",
                    path=str(path),
                    line=0,
                    message=f"unreadable file: {exc}",
                )
            )
            continue
        sources[path] = source
        tree: ast.Module | None
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            tree = None
        else:
            trees[str(path)] = tree
        if not _is_changed(path):
            continue
        tags = scope_tags(path, source)
        raw = _lint_file_raw(source, path, select=select, tags=tags, tree=tree)
        if tree is not None:
            ctx = ModuleContext.build(str(path), tree)
            raw.extend(
                f
                for f in (
                    range_findings(str(path), source, tree=tree, ctx=ctx)
                    + check_error_propagation(str(path), source, tree=tree)
                    + shm_findings(str(path), source, tree=tree, ctx=ctx)
                    + asyncsafety_findings(str(path), source, tree=tree, ctx=ctx)
                    + taint_findings(
                        str(path), source, tree=tree, ctx=ctx, wire="wire" in tags
                    )
                    + (
                        # array semantics only pay off where arrays live:
                        # kernel/runtime files that import numpy
                        npa_findings(str(path), source, tree=tree, ctx=ctx)
                        if (tags & {"codec", "runtime", "ops"}) and "numpy" in source
                        else []
                    )
                )
                if _want(f)
            )
        raw_by_path[str(path)] = raw

    project_ctx = ProjectContext(paths=targets, sources=sources)
    for rule in _selected(all_rules(), select):
        if rule.project_checker is not None:
            for f in rule.project_checker(project_ctx):
                raw_by_path.setdefault(f.path, []).append(f)
    for f in lockorder_findings({str(p): s for p, s in sources.items()}, trees=trees):
        if _want(f):
            raw_by_path.setdefault(f.path, []).append(f)

    # The stale-suppression check only makes sense when the full rule set
    # ran: on a partial run an idle comment may serve a rule not selected.
    # A comment naming an unknown rule id is left alone.
    active = {r.rule_id for r in all_rules()} | DATAFLOW_RULES
    for path, source in sources.items():
        if not _is_changed(path):
            # per-file passes did not run here: suppression accounting
            # would report every comment as stale
            continue
        sup = _suppressions(source)
        used: set[tuple[int, str]] = set()
        report.extend(_apply_suppressions(raw_by_path.pop(str(path), []), sup, used))
        if wanted is not None:
            continue
        for lineno, ruleset in sorted(sup.items()):
            if ruleset is None:
                stale = not any(line == lineno for line, _ in used)
                listed = "a blanket `# szops: ignore`"
            else:
                stale = ruleset <= active and not any(
                    (lineno, r) in used for r in ruleset
                )
                listed = f"`# szops: ignore[{', '.join(sorted(ruleset))}]`"
            if stale:
                report.append(
                    Finding(
                        rule="SZL099",
                        path=str(path),
                        line=lineno,
                        message=f"{listed} comment suppresses nothing",
                        hint="remove the stale suppression — the invariant "
                        "is now proven, or the code it excused has changed",
                        severity=Severity.ERROR,
                    )
                )

    # findings anchored to a file that was never read, or left unchanged
    for fs in raw_by_path.values():
        report.extend(fs)
    if changed_set is not None:
        report = [f for f in report if _is_changed(Path(f.path))]
    return sort_findings(report)
