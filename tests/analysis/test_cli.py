"""CLI surface of the analysis passes: ``lint`` and ``verify-stream``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_lint_clean_tree_exits_zero(package_report) -> None:
    # one run covers every pass: syntactic, lock, dataflow and SZL099
    assert package_report.rc == 0, package_report.rendered()
    assert package_report.summary.startswith("[0 finding(s) -> ")


def test_lint_fixture_exits_nonzero_with_rule_ids(capsys) -> None:
    rc = main(["lint", str(FIXTURES / "rules" / "szl001_pos.py"), "--format=json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["errors"] > 0
    assert {f["rule"] for f in doc["findings"]} == {"SZL001"}
    sample = doc["findings"][0]
    assert {"rule", "path", "line", "severity", "message"} <= sample.keys()


def test_lint_select_filters_rules(capsys) -> None:
    rc = main(
        ["lint", str(FIXTURES / "rules" / "szl001_pos.py"), "--select", "SZL002"]
    )
    assert rc == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_lint_json_on_clean_tree(package_report) -> None:
    doc = package_report.doc
    assert doc["findings"] == []
    assert doc["errors"] == 0


def test_verify_stream_rejects_each_fixture(capsys) -> None:
    for fixture in sorted(FIXTURES.glob("*.bin")):
        rc = main(
            [
                "verify-stream",
                str(fixture),
                "--n-elements",
                "4096",
                "--format=json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1, f"{fixture.name} unexpectedly accepted"
        assert doc["errors"] > 0


def test_verify_stream_accepts_fresh_stream(tmp_path, capsys) -> None:
    import numpy as np

    from repro import SZOps

    rng = np.random.default_rng(11)
    data = np.cumsum(rng.standard_normal(4096)).astype(np.float32)
    target = tmp_path / "fresh.szops"
    target.write_bytes(SZOps().compress(data, 1e-3).to_bytes())
    rc = main(["verify-stream", str(target)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out


def test_verify_stream_missing_file_exits_three(capsys) -> None:
    # I/O failures (unreadable path) are rc 3, distinct from rc 2 usage
    # errors so callers can script retries vs. fix-the-invocation.
    rc = main(["verify-stream", "/nonexistent/stream.bin"])
    assert rc == 3


def test_verify_stream_szp_requires_n_elements(tmp_path, capsys) -> None:
    target = tmp_path / "payload.szp"
    target.write_bytes(b"\x00" * 64)
    rc = main(["verify-stream", str(target), "--stream-format", "szp"])
    assert rc == 2


def test_lint_pinpoints_fixture_lines(capsys) -> None:
    path = FIXTURES / "rules" / "szl006_pos.py"
    rc = main(["lint", str(path), "--format=json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    lines = sorted(f["line"] for f in doc["findings"])
    assert lines == [7, 14]


# ------------------------------------------------------ dataflow rules via CLI

DATAFLOW_FIXTURES = Path(__file__).parent / "dataflow" / "fixtures"


def test_lint_dataflow_clean_tree_exits_zero(package_report) -> None:
    # plain ``lint`` runs the dataflow passes too: none of them fires
    from repro.analysis.dataflow import DATAFLOW_RULES

    assert package_report.rc == 0, package_report.rendered()
    assert package_report.rendered(set(DATAFLOW_RULES)) == ""


def test_lint_dataflow_fixture_reports_dataflow_rule(capsys) -> None:
    rc = main(
        [
            "lint",
            str(DATAFLOW_FIXTURES / "szl101_pos.py"),
            "--format=json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert {f["rule"] for f in doc["findings"]} == {"SZL101"}


def test_lint_sarif_output_file(tmp_path, capsys) -> None:
    target = tmp_path / "lint.sarif"
    rc = main(
        [
            "lint",
            str(DATAFLOW_FIXTURES / "shm_pos.py"),
            "--format=sarif",
            "--output",
            str(target),
        ]
    )
    assert rc == 1
    assert str(target) in capsys.readouterr().out
    doc = json.loads(target.read_text())
    assert doc["version"] == "2.1.0"
    assert {r["ruleId"] for r in doc["runs"][0]["results"]} == {"SHM001", "SHM002"}
