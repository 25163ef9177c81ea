"""Per-pass positive/negative fixtures for the dataflow analyses.

Every pass must demonstrate at least one true positive (the fixture
violates the invariant and the pass proves it) and one clean negative
(the guarded idiom the pass is expected to *prove safe*, not merely not
flag).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.dataflow import (
    check_error_propagation,
    lockorder_findings,
    range_findings,
    shm_findings,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name: str) -> tuple[str, str]:
    path = FIXTURES / f"{name}.py"
    return str(path), path.read_text()


# ------------------------------------------------------------------ ranges


def test_szl101_unguarded_quantized_add_fires() -> None:
    path, src = _fixture("szl101_pos")
    assert [f.rule for f in range_findings(path, src)] == ["SZL101"]


def test_szl101_peak_guard_protocol_is_proven_safe() -> None:
    path, src = _fixture("szl101_neg")
    assert range_findings(path, src) == []


def test_szl101_minmax_peak_guard_is_proven_safe() -> None:
    path, src = _fixture("szl101_minmax_neg")
    assert range_findings(path, src) == []


def test_szl101_minmax_guard_over_another_plane_fires() -> None:
    path, src = _fixture("szl101_minmax_pos")
    assert [f.rule for f in range_findings(path, src)] == ["SZL101"]


def test_szl102_unguarded_cast_fires() -> None:
    path, src = _fixture("szl102_pos")
    findings = range_findings(path, src)
    assert [f.rule for f in findings] == ["SZL102"]
    assert "finite" in findings[0].message


def test_szl102_finite_and_range_guard_is_proven_safe() -> None:
    path, src = _fixture("szl102_neg")
    assert range_findings(path, src) == []


def test_szl102_nan_propagating_minmax_guard_is_proven_safe() -> None:
    path, src = _fixture("szl102_minmax_neg")
    assert range_findings(path, src) == []


def test_szl102_minmax_guard_that_nan_slips_fires() -> None:
    path, src = _fixture("szl102_minmax_pos")
    findings = range_findings(path, src)
    assert [f.rule for f in findings] == ["SZL102"]
    assert "finite" in findings[0].message


# --------------------------------------------------------------- errorprop


def test_szl103_wrong_declaration_fires() -> None:
    path, src = _fixture("szl103_pos")
    findings = check_error_propagation(path, src)
    assert [f.rule for f in findings] == ["SZL103"]
    assert "'scaled'" in findings[0].message
    assert "'exact'" in findings[0].message


def test_szl103_matching_declarations_are_clean() -> None:
    path, src = _fixture("szl103_neg")
    assert check_error_propagation(path, src) == []


# --------------------------------------------------------------- lockorder


def test_lck002_lock_order_inversion_fires() -> None:
    path, src = _fixture("lck002_pos")
    findings = lockorder_findings({path: src})
    assert [f.rule for f in findings] == ["LCK002"]
    assert "cycle" in findings[0].message


def test_lck002_consistent_order_is_clean() -> None:
    path, src = _fixture("lck002_neg")
    assert lockorder_findings({path: src}) == []


# ----------------------------------------------------------------- shmlife


def test_shm_leak_on_raise_and_use_after_release_fire() -> None:
    path, src = _fixture("shm_pos")
    rules = sorted(f.rule for f in shm_findings(path, src))
    assert rules == ["SHM001", "SHM002"]


def test_shm_try_finally_and_with_are_clean() -> None:
    path, src = _fixture("shm_neg")
    assert shm_findings(path, src) == []


# ----------------------------------------------------- real-tree assertions


@pytest.mark.parametrize(
    "module",
    [
        "core/ops/negate.py",
        "core/ops/scalar_add.py",
        "core/ops/scalar_mul.py",
        "core/ops/reductions.py",
        "core/ops/multivariate.py",
    ],
)
def test_every_registered_declaration_verifies(module: str) -> None:
    """SZL103 rederives and confirms each real ERROR_PROPAGATION entry."""
    import repro

    path = Path(repro.__file__).resolve().parent / module
    src = path.read_text()
    assert "ERROR_PROPAGATION" in src
    assert check_error_propagation(str(path), src) == []
