"""One whole-package analysis run, shared by every clean-tree gate."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import pytest

from repro.cli import main


@dataclass(frozen=True)
class PackageReport:
    """``python -m repro.cli lint --format=json --output ...`` on ``repro``."""

    rc: int
    #: the one-line summary the CLI prints when ``--output`` is given
    summary: str
    #: the JSON report document
    doc: dict

    def rendered(self, rules: set[str] | None = None) -> str:
        """The findings (optionally only ``rules``) one per line."""
        return "\n".join(
            f"{f['path']}:{f['line']}: {f['rule']} {f['message']}"
            for f in self.doc["findings"]
            if rules is None or f["rule"] in rules
        )


@pytest.fixture(scope="session")
def package_report(tmp_path_factory: pytest.TempPathFactory) -> PackageReport:
    """Every analysis pass over the installed package, run once a session."""
    target = tmp_path_factory.mktemp("lint") / "package.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["lint", "--format=json", "--output", str(target)])
    return PackageReport(rc, out.getvalue(), json.loads(target.read_text()))
