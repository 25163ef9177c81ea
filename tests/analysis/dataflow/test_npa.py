"""The NPA array-semantics pass: fixtures, suppressions, and e2e gates.

Every rule carries two true-positive scenarios (the pass proves the
violation) and at least two proven-safe negatives (the guarded kernel
idiom analyzes clean, no suppression needed).  The suppression tests pin
the ``# szops: ignore[NPA...]`` syntax and its SZL099 stale accounting
to the same machinery the SZL/LCK/SHM rules use.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.dataflow import npa_findings

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[3]


def _fixture(name: str) -> tuple[str, str]:
    path = FIXTURES / f"{name}.py"
    return str(path), path.read_text()


# ------------------------------------------------------------- per rule

_CASES = [
    ("npa001", "NPA001", "same buffer"),
    ("npa002", "NPA002", ".view("),
    ("npa003", "NPA003", "out of bounds"),
    ("npa004", "NPA004", "not be writable"),
    ("npa005", "NPA005", "np.empty"),
    ("npa006", "NPA006", "wraps"),
]


@pytest.mark.parametrize("stem,rule,phrase", _CASES)
def test_positive_fixture_fires_twice(stem: str, rule: str, phrase: str) -> None:
    path, src = _fixture(f"{stem}_pos")
    findings = npa_findings(path, src)
    assert [f.rule for f in findings] == [rule, rule]
    assert all(phrase in f.message for f in findings)
    # distinct scenarios, not one finding reported twice
    assert len({f.line for f in findings}) == 2


@pytest.mark.parametrize("stem", [stem for stem, _, _ in _CASES])
def test_negative_fixture_is_proven_safe(stem: str) -> None:
    path, src = _fixture(f"{stem}_neg")
    assert npa_findings(path, src) == []


# -------------------------------------------------- suppressions + SZL099


def test_npa_suppression_is_honoured_and_counts_as_used() -> None:
    # The justified ignore[NPA004] swallows the finding and does not go
    # stale on a full dataflow run.
    assert analyze_paths([FIXTURES / "npa_suppress_live.py"]) == []


def test_stale_npa_suppression_is_reported() -> None:
    findings = analyze_paths([FIXTURES / "npa_suppress_stale.py"])
    assert [f.rule for f in findings] == ["SZL099"]
    assert "NPA003" in findings[0].message


def test_npa_findings_survive_the_driver_unsuppressed() -> None:
    findings = analyze_paths([FIXTURES / "npa001_pos.py"])
    assert [f.rule for f in findings] == ["NPA001", "NPA001"]


# ------------------------------------------------------------- e2e gates


def test_repro_package_is_npa_clean(package_report) -> None:
    """The acceptance gate: zero unsuppressed NPA findings over the tree."""
    npa_rules = {f"NPA00{i}" for i in range(1, 7)}
    assert package_report.rendered(npa_rules) == ""


def test_benchmarks_are_npa_clean() -> None:
    """Mirror of the CI step: NPA-only select over the benchmark harnesses."""
    benchmarks = REPO / "benchmarks"
    if not benchmarks.is_dir():  # pragma: no cover - repo layout guard
        pytest.skip("benchmarks/ not present")
    npa_rules = [f"NPA00{i}" for i in range(1, 7)]
    findings = analyze_paths([benchmarks], select=npa_rules)
    assert findings == [], "\n".join(f.render() for f in findings)


# ------------------------------------------- incremental (--changed) mode


def test_changed_mode_restricts_to_the_listed_files() -> None:
    pos = FIXTURES / "npa001_pos.py"
    other = FIXTURES / "npa006_pos.py"
    findings = analyze_paths([pos, other], changed=[pos])
    assert [f.rule for f in findings] == ["NPA001", "NPA001"]
    assert all(Path(f.path).name == "npa001_pos.py" for f in findings)


def test_changed_mode_equals_full_run_filtered() -> None:
    pos = FIXTURES / "npa002_pos.py"
    neg = FIXTURES / "npa002_neg.py"
    full = [
        f for f in analyze_paths([pos, neg])
        if Path(f.path).name == "npa002_pos.py"
    ]
    incremental = analyze_paths([pos, neg], changed=[pos])
    assert [(f.rule, f.line) for f in incremental] == [
        (f.rule, f.line) for f in full
    ]
