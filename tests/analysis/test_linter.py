"""szops-lint: one positive and one negative fixture per SZL rule, every
rule fixture through the one driver, plus driver behaviour (suppressions,
scope tags, tree-wide cleanliness)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths, lint_source
from repro.analysis.linter import default_target, scope_tags

FIXTURES = Path(__file__).parent / "fixtures"
RULES_DIR = FIXTURES / "rules"


def _rules_in(path: Path) -> set[str]:
    return {f.rule for f in lint_source(path.read_text(), path)}


@pytest.mark.parametrize("rule", ["SZL001", "SZL002", "SZL003", "SZL005", "SZL006"])
def test_positive_fixture_fires_exactly_its_rule(rule: str) -> None:
    path = RULES_DIR / f"{rule.lower()}_pos.py"
    assert _rules_in(path) == {rule}


@pytest.mark.parametrize("rule", ["SZL001", "SZL002", "SZL003", "SZL005", "SZL006"])
def test_negative_fixture_is_clean(rule: str) -> None:
    path = RULES_DIR / f"{rule.lower()}_neg.py"
    assert _rules_in(path) == set()


def test_szl004_flags_unimported_op_module() -> None:
    findings = analyze_paths([FIXTURES / "szl004_pkg"])
    rules = {f.rule for f in findings}
    assert rules == {"SZL004"}
    (finding,) = findings
    assert finding.path.endswith("orphan.py")
    assert "never imported" in finding.message


def test_szl000_on_syntax_error() -> None:
    findings = lint_source("def broken(:\n    pass\n", "bad.py")
    assert [f.rule for f in findings] == ["SZL000"]


def test_suppression_is_line_granular() -> None:
    src = (
        "q = load()\n"
        "q *= 3  # szops: ignore[SZL001]\n"
        "q *= 5\n"
    )
    findings = lint_source(src, "frag.py")
    assert [(f.rule, f.line) for f in findings] == [("SZL001", 3)]


def test_blanket_suppression_without_bracket() -> None:
    src = "q = load()\nq *= 3  # szops: ignore\n"
    assert lint_source(src, "frag.py") == []


def test_suppressing_other_rule_does_not_hide_finding() -> None:
    src = "q = load()\nq *= 3  # szops: ignore[SZL006]\n"
    assert [f.rule for f in lint_source(src, "frag.py")] == ["SZL001"]


def test_select_restricts_rules() -> None:
    path = RULES_DIR / "szl001_pos.py"
    findings = lint_source(path.read_text(), path, select=["SZL002"])
    assert findings == []


def test_scope_marker_overrides_defaults() -> None:
    src = "# szops-lint-scope: ops-module\nx = 1\n"
    assert scope_tags(Path("anything.py"), src) == frozenset({"ops-module"})


def test_loose_file_default_tags_exclude_ops_module() -> None:
    tags = scope_tags(Path("loose.py"), "x = 1\n")
    assert "ops-module" not in tags
    assert {"ops", "codec", "runtime"} <= tags


def test_ops_package_module_gets_ops_module_tag() -> None:
    target = default_target() / "core" / "ops" / "negate.py"
    tags = scope_tags(target, target.read_text())
    assert "ops-module" in tags


def test_szl003_accepts_a_guard_over_a_nan_checked_plane() -> None:
    src = (
        "import numpy as np\n"
        "Q_LIMIT = 2**62\n"
        "def guard(x, y, f):\n"
        "    s = np.rint(x * f)\n"
        "    if not np.all(np.isfinite(s)) or np.abs(s).max() >= float(Q_LIMIT):\n"
        "        raise OverflowError\n"
        "    if np.abs(s - np.rint(y)).max() >= float(Q_LIMIT):\n"
        "        raise OverflowError\n"
    )
    findings = lint_source(src, "frag.py")
    # the second guard also reads y, which nothing NaN-checked
    assert [(f.rule, f.line) for f in findings] == [("SZL003", 7)]


def test_installed_tree_is_clean(package_report) -> None:
    # The acceptance bar: the shipped package has zero findings.
    assert package_report.doc["findings"] == [], package_report.rendered()


# ------------------------------------------------- every fixture, one driver

DATAFLOW_FIXTURES = Path(__file__).parent / "dataflow" / "fixtures"

#: What each positive rule fixture fires through ``analyze_paths``; every
#: ``*_neg.py`` beside them must analyse clean.
POSITIVE_FIXTURES = {
    "szl001_pos": {"SZL001"},
    "szl002_pos": {"SZL002"},
    "szl003_pos": {"SZL003"},
    "szl005_pos": {"SZL005"},
    "szl006_pos": {"SZL006"},
    "asy001_pos": {"ASY001"},
    "asy002_pos": {"ASY002"},
    "asy003_pos": {"ASY003"},
    "asy004_pos": {"ASY004"},
    "asy005_pos": {"ASY005"},
    "tnt001_pos": {"TNT001"},
    "tnt002_pos": {"TNT002"},
    "szl101_pos": {"SZL101"},
    "szl101_minmax_pos": {"SZL101"},
    "szl101_param_pos": {"SZL101"},
    "szl102_pos": {"SZL102"},
    # the NaN-slipping comparisons are also what the syntactic SZL003 flags
    "szl102_minmax_pos": {"SZL102", "SZL003"},
    "szl103_pos": {"SZL103"},
    "lck002_pos": {"LCK002"},
    "shm_pos": {"SHM001", "SHM002"},
    "szl099_pos": {"SZL099"},
    "npa001_pos": {"NPA001"},
    "npa002_pos": {"NPA002"},
    "npa003_pos": {"NPA003"},
    "npa004_pos": {"NPA004"},
    "npa005_pos": {"NPA005"},
    "npa006_pos": {"NPA006"},
}

_RULE_FIXTURES = sorted(
    [*RULES_DIR.glob("*_pos.py"), *RULES_DIR.glob("*_neg.py")]
    + [*DATAFLOW_FIXTURES.glob("*_pos.py"), *DATAFLOW_FIXTURES.glob("*_neg.py")]
)


def test_every_positive_fixture_has_an_expectation() -> None:
    stems = {p.stem for p in _RULE_FIXTURES if p.stem.endswith("_pos")}
    assert stems == set(POSITIVE_FIXTURES)


@pytest.mark.parametrize("path", _RULE_FIXTURES, ids=lambda p: p.stem)
def test_rule_fixture_through_the_driver(path: Path) -> None:
    expected = POSITIVE_FIXTURES.get(path.stem, set())
    findings = analyze_paths([path])
    assert {f.rule for f in findings} == expected, "\n".join(
        f.render() for f in findings
    )
