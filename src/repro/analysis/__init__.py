"""Static analysis for the SZOps reproduction: lint, lock, and stream checks.

SZOps' correctness story is an error bound that survives compressed-domain
arithmetic, which makes silent numeric hazards — int64 overflow in the
quantized domain, float64->float32 narrowing, NaN-unsafe comparisons —
exactly the bugs the differential tests only catch probabilistically.  This
package enforces the repository's format, numeric-safety, and concurrency
invariants *statically*:

* :func:`~repro.analysis.linter.analyze_paths` — the one source-analysis
  driver.  Every call runs every pass over each file's single parse: the
  syntactic ``szops-lint`` rules SZL000–SZL006
  (:mod:`repro.analysis.rules`), the lock-discipline and lock-order rules
  LCK001/LCK002 (:mod:`repro.analysis.dataflow.lockorder`), the
  abstract-interpretation passes of :mod:`repro.analysis.dataflow`, and
  the SZL099 stale-suppression check;
* :func:`~repro.analysis.linter.lint_source` — the syntactic rules on one
  in-memory module;
* :mod:`repro.analysis.verify_stream` — a static container verifier that
  checks serialized SZOps / SZp streams without decompressing them.

All passes emit structured :class:`~repro.analysis.findings.Finding`
records with text, JSON and SARIF renderings, and are wired into
``python -m repro.cli lint`` / ``verify-stream`` and the CI lint gate.
See ``docs/ANALYSIS.md`` for rule rationales and the suppression syntax
(``# szops: ignore[SZL001]``).
"""

from __future__ import annotations

from repro.analysis.findings import (
    Finding,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.linter import analyze_paths, lint_source
from repro.analysis.verify_stream import (
    STREAM_VERIFIERS,
    assert_stream_ok,
    verify_file,
    verify_szops_bytes,
    verify_szp_payload,
)

__all__ = [
    "Finding",
    "Severity",
    "render_json",
    "render_sarif",
    "render_text",
    "analyze_paths",
    "lint_source",
    "STREAM_VERIFIERS",
    "assert_stream_ok",
    "verify_file",
    "verify_szops_bytes",
    "verify_szp_payload",
]
