"""Structured findings shared by all three analysis passes.

Every pass — the AST linter, the lock-discipline checker, and the stream
verifier — reports the same record shape: a rule id, a location, a
severity, a one-line message, and a fix hint.  Keeping the shape uniform
lets the CLI merge passes into one report and lets CI gate on a single
JSON document.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field


class Severity(str, enum.Enum):
    """Finding severity; only ``ERROR`` findings fail the lint gate."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One analysis finding.

    Attributes
    ----------
    rule : rule id (``SZL001``–``SZL006`` lint, ``LCK001`` lockcheck,
        ``VS0xx`` stream verification).
    path : file the finding is anchored to (source file or stream file).
    line : 1-based line number; 0 when the finding has no line anchor
        (stream verification findings are byte-offset anchored instead).
    message : one-line statement of the defect.
    hint : suggested fix.
    severity : :class:`Severity`; errors gate, warnings inform.
    offset : byte offset into a verified stream, or ``None`` for source
        findings.
    """

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""
    severity: Severity = Severity.ERROR
    offset: int | None = None

    def location(self) -> str:
        if self.offset is not None:
            return f"{self.path}@byte {self.offset}"
        return f"{self.path}:{self.line}"

    def render(self) -> str:
        text = f"{self.location()}: {self.rule} {self.severity.value}: {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> dict[str, object]:
        data = asdict(self)
        data["severity"] = self.severity.value
        return data


@dataclass
class Report:
    """A collection of findings from one or more passes."""

    findings: list[Finding] = field(default_factory=list)

    def extend(self, more: list[Finding]) -> None:
        self.findings.extend(more)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable report order: path, then line/offset, then rule id."""
    return sorted(
        findings,
        key=lambda f: (f.path, f.line, -1 if f.offset is None else f.offset, f.rule),
    )


def render_text(findings: list[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    lines = [f.render() for f in sort_findings(findings)]
    n_err = sum(1 for f in findings if f.severity is Severity.ERROR)
    n_warn = len(findings) - n_err
    lines.append(
        "clean: no findings"
        if not findings
        else f"{n_err} error(s), {n_warn} warning(s)"
    )
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report (the format CI gates on)."""
    ordered = sort_findings(findings)
    doc = {
        "findings": [f.to_dict() for f in ordered],
        "counts": Report(ordered).counts(),
        "errors": sum(1 for f in ordered if f.severity is Severity.ERROR),
        "warnings": sum(1 for f in ordered if f.severity is Severity.WARNING),
    }
    return json.dumps(doc, indent=2)


#: Per-family anchors into the rule tables of ``docs/ANALYSIS.md``;
#: rendered as relative ``helpUri``s on each SARIF rule descriptor so
#: code-scanning UIs link findings straight to the pass documentation.
#: Fragments are GitHub heading slugs — ``test_async_taint.py`` recomputes
#: them from the document so they cannot drift silently.
_ANALYSIS_DOC = "docs/ANALYSIS.md"
_FAMILY_ANCHORS: dict[str, str] = {
    "lint": "pass-1--szops-lint-rules-szl000szl006",
    "verify": "pass-2--verify-stream-rules-vs001vs008",
    "lockcheck": "pass-3--lockcheck-rule-lck001",
    "dataflow": "pass-4--abstract-interpretation-rules-szl099-szl101szl103-lck002-shm001002",
    "async": "pass-5--async-safety--untrusted-input-asy001asy005-tnt001002",
    "npa": "pass-6--numpy-array-semantics-npa001npa006",
}
#: Dataflow-upgrade SZL ids documented in pass 4, not the syntactic pass 1.
_DATAFLOW_SZL = frozenset({"SZL099", "SZL101", "SZL102", "SZL103"})


def rule_help_uri(rule: str) -> str | None:
    """Relative documentation URI for ``rule``, or ``None`` if undocumented."""
    if rule in _DATAFLOW_SZL or rule in {"LCK002"} or rule.startswith("SHM"):
        family = "dataflow"
    elif rule.startswith("SZL"):
        family = "lint"
    elif rule.startswith("VS"):
        family = "verify"
    elif rule.startswith("LCK"):
        family = "lockcheck"
    elif rule.startswith(("ASY", "TNT")):
        family = "async"
    elif rule.startswith("NPA"):
        family = "npa"
    else:
        return None
    return f"{_ANALYSIS_DOC}#{_FAMILY_ANCHORS[family]}"


def render_sarif(findings: list[Finding], *, tool_name: str = "szops-lint") -> str:
    """SARIF 2.1.0 report, for code-scanning UIs and CI artifact upload.

    Minimal-but-valid subset: one run, one rule descriptor per distinct
    rule id, one result per finding.  Stream findings (byte-offset
    anchored, line 0) are emitted with ``byteOffset`` regions; source
    findings with line regions.  Hints ride along as the fix description
    so they stay visible in viewers that only show the result message.
    Each rule descriptor carries a ``helpUri`` into the matching rule
    table of ``docs/ANALYSIS.md``.
    """
    ordered = sort_findings(findings)
    rules: list[dict[str, object]] = []
    rule_index: dict[str, int] = {}
    for f in ordered:
        if f.rule not in rule_index:
            rule_index[f.rule] = len(rules)
            desc: dict[str, object] = {"id": f.rule}
            help_uri = rule_help_uri(f.rule)
            if help_uri is not None:
                desc["helpUri"] = help_uri
            rules.append(desc)
    results = []
    for f in ordered:
        message = f.message if not f.hint else f"{f.message} [hint: {f.hint}]"
        location: dict[str, object] = {
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": (
                    {"byteOffset": f.offset}
                    if f.offset is not None
                    else {"startLine": max(f.line, 1)}
                ),
            }
        }
        results.append(
            {
                "ruleId": f.rule,
                "ruleIndex": rule_index[f.rule],
                "level": f.severity.value,
                "message": {"text": message},
                "locations": [location],
            }
        )
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {"driver": {"name": tool_name, "rules": rules}},
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
