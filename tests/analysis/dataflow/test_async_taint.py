"""ASY/TNT passes: fixtures, scope gating, suppressions, SARIF, e2e gate.

Every new rule has at least two positive scenarios (the fixture violates
the invariant and the pass proves it) and a negative fixture exercising
the guarded idiom the pass must *prove safe*.  The driver-level tests
cover the ``# szops: ignore[...]`` contract for the new rule ids, the
``wire`` scope gate for the taint pass, SARIF 2.1.0 schema conformance
over the whole fixture corpus, and the service-tree acceptance gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, render_sarif
from repro.analysis.dataflow import asyncsafety_findings, taint_findings
from repro.analysis.linter import default_target
from tests.analysis.test_linter import POSITIVE_FIXTURES

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name: str) -> tuple[str, str]:
    path = FIXTURES / f"{name}.py"
    return str(path), path.read_text()


# ----------------------------------------------------------- ASY fixtures


@pytest.mark.parametrize(
    ("rule", "count"),
    [("ASY001", 3), ("ASY002", 2), ("ASY003", 3), ("ASY004", 3), ("ASY005", 3)],
)
def test_asy_positive_scenarios_fire(rule: str, count: int) -> None:
    path, src = _fixture(f"{rule.lower()}_pos")
    findings = asyncsafety_findings(path, src)
    assert sorted(f.rule for f in findings) == [rule] * count, "\n".join(
        f.render() for f in findings
    )
    assert all(f.hint for f in findings)


@pytest.mark.parametrize(
    "rule", ["ASY001", "ASY002", "ASY003", "ASY004", "ASY005"]
)
def test_asy_guarded_idioms_are_proven_safe(rule: str) -> None:
    path, src = _fixture(f"{rule.lower()}_neg")
    findings = asyncsafety_findings(path, src)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_asy_pass_skips_fully_synchronous_modules() -> None:
    # The fast path: no async functions, no analysis.
    src = "import time\n\ndef slow() -> None:\n    time.sleep(1.0)\n"
    assert asyncsafety_findings("sync.py", src) == []


# ----------------------------------------------------------- TNT fixtures


@pytest.mark.parametrize(("rule", "count"), [("TNT001", 3), ("TNT002", 3)])
def test_tnt_positive_scenarios_fire(rule: str, count: int) -> None:
    path, src = _fixture(f"{rule.lower()}_pos")
    findings = taint_findings(path, src, wire=True)
    assert sorted(f.rule for f in findings) == [rule] * count, "\n".join(
        f.render() for f in findings
    )


@pytest.mark.parametrize("rule", ["TNT001", "TNT002"])
def test_tnt_validated_idioms_are_proven_safe(rule: str) -> None:
    path, src = _fixture(f"{rule.lower()}_neg")
    findings = taint_findings(path, src, wire=True)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_tnt_runs_only_on_wire_scoped_files() -> None:
    path, src = _fixture("tnt001_pos")
    # Loose files default to the wire scope ...
    assert taint_findings(path, src) != []
    # ... but an explicit non-wire scope header opts out.
    opted_out = f"# szops-lint-scope: codec\n{src}"
    assert taint_findings(path, opted_out) == []
    # wire=False overrides regardless of tags.
    assert taint_findings(path, src, wire=False) == []


# ------------------------------------------------- suppressions + SZL099

_SUPPRESSED_SRC = '''\
"""Startup helper: blocking sleep before the loop starts serving."""

import struct
import time


async def warm_up() -> None:
    time.sleep(0.2)  # szops: ignore[ASY003] -- loop not yet serving


async def read_raw(reader) -> bytes:
    header = await reader.readexactly(4)
    (n,) = struct.unpack("<I", header)
    return await reader.readexactly(int(n))  # szops: ignore[TNT001] -- fuzz rig
'''

_STALE_SRC = '''\
"""Nothing here violates the async rules."""

import asyncio


async def tick() -> None:
    await asyncio.sleep(0.5)  # szops: ignore[ASY005]
    await asyncio.sleep(0.1)  # szops: ignore[TNT002]
'''


def test_asy_tnt_suppressions_are_honored(tmp_path: Path) -> None:
    target = tmp_path / "warmup.py"
    target.write_text(_SUPPRESSED_SRC)
    findings = analyze_paths([target])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_stale_asy_tnt_suppressions_are_reported(tmp_path: Path) -> None:
    target = tmp_path / "clean.py"
    target.write_text(_STALE_SRC)
    findings = analyze_paths([target])
    assert [f.rule for f in findings] == ["SZL099", "SZL099"]
    assert "ASY005" in findings[0].message
    assert "TNT002" in findings[1].message


def test_no_stale_check_when_asy_rules_did_not_run(tmp_path: Path) -> None:
    # With --select naming only a syntactic rule the ASY/TNT rules never
    # reported, so their idle suppressions cannot be proven stale.
    target = tmp_path / "clean.py"
    target.write_text(_STALE_SRC)
    assert analyze_paths([target], select=["SZL003"]) == []


# ------------------------------------------------------------ SARIF golden

#: Every positive fixture here and the rules it fires through the driver;
#: the corpus doubles as the SARIF golden input.
_POSITIVE_CORPUS = {
    stem: rules
    for stem, rules in POSITIVE_FIXTURES.items()
    if (FIXTURES / f"{stem}.py").exists()
}


def test_sarif_over_fixture_corpus_validates_against_2_1_0_schema() -> None:
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent / "sarif_2_1_0_subset.schema.json").read_text()
    )
    findings = []
    for name in sorted(_POSITIVE_CORPUS):
        findings.extend(analyze_paths([FIXTURES / f"{name}.py"]))
    doc = json.loads(render_sarif(findings))
    jsonschema.validate(doc, schema)

    fired = {r["ruleId"] for r in doc["runs"][0]["results"]}
    expected = set().union(*_POSITIVE_CORPUS.values())
    assert fired == expected
    declared = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert fired <= declared
    # every result's location resolves back into the fixture corpus
    for res in doc["runs"][0]["results"]:
        uri = res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert Path(uri).name in {f"{n}.py" for n in _POSITIVE_CORPUS}


# ------------------------------------------------------------- e2e gates


def test_service_tree_is_async_and_taint_clean() -> None:
    """The acceptance gate: zero unsuppressed findings over the service layer."""
    service_dir = default_target() / "service"
    findings = analyze_paths([service_dir])
    assert findings == [], "\n".join(f.render() for f in findings)
