"""The suppression-aware driver: SZL099, SARIF, and tree-wide cleanliness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, render_sarif
from repro.analysis.findings import Finding, Severity

FIXTURES = Path(__file__).parent / "fixtures"


# ------------------------------------------------------------------ SZL099


def test_stale_suppressions_are_reported() -> None:
    findings = analyze_paths([FIXTURES / "szl099_pos.py"])
    assert [f.rule for f in findings] == ["SZL099", "SZL099"]
    listed, blanket = findings
    assert "SZL001" in listed.message
    assert "blanket" in blanket.message


def test_live_suppression_and_docstring_example_are_not_stale() -> None:
    assert analyze_paths([FIXTURES / "szl099_neg.py"]) == []


def test_no_stale_check_on_partial_runs() -> None:
    # With --select the unlisted rules never ran, so an idle comment
    # cannot be proven stale.
    findings = analyze_paths(
        [FIXTURES / "szl099_pos.py"], select=["SZL003"]
    )
    assert findings == []


def test_dataflow_mode_shadows_syntactic_rules() -> None:
    # The peak-guard negative fixture is proven safe by SZL101, and the
    # syntactic SZL001 (which runs too) has no finding of its own there.
    findings = analyze_paths([FIXTURES / "szl101_neg.py"])
    assert [f for f in findings if f.rule in {"SZL001", "SZL101"}] == []


# ----------------------------------------------------------------- e2e tree


def test_repro_package_is_dataflow_clean(package_report) -> None:
    """The acceptance gate: zero unsuppressed findings over the package."""
    assert package_report.doc["findings"] == [], package_report.rendered()


# -------------------------------------------------------------------- SARIF


def test_render_sarif_minimal_document() -> None:
    findings = [
        Finding(
            rule="SZL101",
            path="src/x.py",
            line=12,
            message="overflow",
            hint="guard it",
        ),
        Finding(
            rule="VS001",
            path="stream.bin",
            line=0,
            message="bad magic",
            severity=Severity.WARNING,
            offset=4,
        ),
    ]
    doc = json.loads(render_sarif(findings))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "szops-lint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {"SZL101", "VS001"}
    by_rule = {r["ruleId"]: r for r in run["results"]}
    src_region = by_rule["SZL101"]["locations"][0]["physicalLocation"]["region"]
    assert src_region == {"startLine": 12}
    assert "guard it" in by_rule["SZL101"]["message"]["text"]
    stream_region = by_rule["VS001"]["locations"][0]["physicalLocation"]["region"]
    assert stream_region == {"byteOffset": 4}
    assert by_rule["VS001"]["level"] == "warning"


def test_render_sarif_empty() -> None:
    doc = json.loads(render_sarif([]))
    assert doc["runs"][0]["results"] == []


def test_sarif_rules_carry_help_uris_into_the_docs() -> None:
    findings = [
        Finding(rule=r, path="src/x.py", line=1, message="m")
        for r in ("SZL001", "SZL101", "VS001", "LCK001", "LCK002",
                  "SHM001", "ASY001", "TNT001", "NPA001", "SZL099")
    ]
    doc = json.loads(render_sarif(findings))
    uris = {
        r["id"]: r.get("helpUri", "")
        for r in doc["runs"][0]["tool"]["driver"]["rules"]
    }
    assert all(u.startswith("docs/ANALYSIS.md#") for u in uris.values()), uris
    assert "pass-1" in uris["SZL001"]
    assert "pass-2" in uris["VS001"]
    assert "pass-3" in uris["LCK001"]
    for dataflow_rule in ("SZL099", "SZL101", "LCK002", "SHM001"):
        assert "pass-4" in uris[dataflow_rule]
    assert "pass-5" in uris["ASY001"] and "pass-5" in uris["TNT001"]
    assert "pass-6" in uris["NPA001"]


def test_help_uri_anchors_resolve_to_real_doc_headings() -> None:
    """Recompute GitHub heading slugs from docs/ANALYSIS.md — no drift."""
    from repro.analysis.findings import rule_help_uri

    doc_path = Path(__file__).resolve().parents[3] / "docs" / "ANALYSIS.md"
    if not doc_path.exists():  # pragma: no cover - installed-package runs
        pytest.skip("docs/ not present")

    def slug(heading: str) -> str:
        text = heading.strip().lower().replace("`", "")
        kept = "".join(c for c in text if c.isalnum() or c in " -_")
        return kept.replace(" ", "-")

    slugs = {
        slug(line.lstrip("#"))
        for line in doc_path.read_text().splitlines()
        if line.startswith("#")
    }
    rules = ["SZL001", "SZL099", "SZL101", "VS001", "LCK001", "LCK002",
             "SHM001", "SHM002", "ASY001", "TNT001"]
    rules += [f"NPA00{i}" for i in range(1, 7)]
    for rule in rules:
        uri = rule_help_uri(rule)
        assert uri is not None, rule
        fragment = uri.split("#", 1)[1]
        assert fragment in slugs, (rule, fragment)
    assert rule_help_uri("XXX999") is None
