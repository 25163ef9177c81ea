"""verify-stream: clean passes for real codec output, rejections for the
corrupt-container fixtures, and the library assertion."""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import SZOps
from repro.analysis import (
    assert_stream_ok,
    verify_file,
    verify_szops_bytes,
    verify_szp_payload,
)
from repro.analysis.findings import Severity
from repro.baselines.szp import SZp
from repro.core.errors import FormatError

FIXTURES = Path(__file__).parent / "fixtures"
N_FIXTURE_ELEMENTS = 4096  # geometry baked into make_fixtures.py


def _errors(findings) -> set[str]:
    return {f.rule for f in findings if f.severity is Severity.ERROR}


@pytest.fixture(scope="module")
def signal() -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.cumsum(rng.standard_normal(20_000))


# --------------------------------------------------------------- clean passes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_szops_stream_verifies_clean(signal: np.ndarray, dtype) -> None:
    buf = SZOps().compress(signal.astype(dtype), 1e-3).to_bytes()
    assert _errors(verify_szops_bytes(buf)) == set()
    assert_stream_ok(buf)  # must not raise


def test_faithful_szp_payload_verifies_clean(signal: np.ndarray) -> None:
    payload = SZp().compress(signal, 1e-3).payload
    assert _errors(verify_szp_payload(payload, signal.size)) == set()
    assert_stream_ok(payload, fmt="szp", n_elements=signal.size)


def test_ablated_szp_payload_verifies_clean(signal: np.ndarray) -> None:
    codec = SZp(
        store_block_lengths=False,
        full_sign_bitmap=False,
        word_align_payload=False,
    )
    payload = codec.compress(signal, 1e-3).payload
    assert _errors(verify_szp_payload(payload, signal.size)) == set()


# ----------------------------------------------------------------- rejections


@pytest.mark.parametrize(
    ("fixture", "rule"),
    [
        ("truncated_payload.bin", "VS001"),
        ("width33.bin", "VS005"),
        ("nonmonotonic_offsets.bin", "VS007"),
        ("trailing_bytes.bin", "VS008"),
    ],
)
def test_corrupt_szops_fixture_rejected(fixture: str, rule: str) -> None:
    findings = verify_file(FIXTURES / fixture)
    assert rule in _errors(findings)


def test_bad_magic_rejected_as_szops() -> None:
    # verify_file sniffs non-SZOPS magic as SZp; pin the format to get the
    # magic-specific verdict.
    data = (FIXTURES / "bad_magic.bin").read_bytes()
    assert _errors(verify_szops_bytes(data)) == {"VS002"}
    # Sniffing still rejects it — the garbage header is no valid SZp either.
    sniffed = verify_file(FIXTURES / "bad_magic.bin", n_elements=N_FIXTURE_ELEMENTS)
    assert _errors(sniffed)


def test_szp_length_plane_mismatch_rejected() -> None:
    findings = verify_file(
        FIXTURES / "szp_bad_lengths.bin", fmt="szp", n_elements=N_FIXTURE_ELEMENTS
    )
    assert "VS006" in _errors(findings)


def test_every_binary_fixture_is_rejected() -> None:
    for fixture in sorted(FIXTURES.glob("*.bin")):
        findings = verify_file(fixture, n_elements=N_FIXTURE_ELEMENTS)
        assert _errors(findings), f"{fixture.name} unexpectedly verified clean"


def _traced_peak(fn):
    """``fn()`` and the peak bytes traced while it ran (NumPy included)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_huge_header_rejected_without_allocating() -> None:
    # The header declares 2**40 elements at block size 1; nothing may be
    # sized by that before the width plane is found missing.
    data = (FIXTURES / "huge_header.bin").read_bytes()
    findings, peak = _traced_peak(lambda: verify_szops_bytes(data))
    assert [f.rule for f in findings] == ["VS001"]
    assert peak < 2**20


def test_szp_huge_element_count_rejected_without_allocating(signal) -> None:
    payload = SZp().compress(signal[:256], 1e-3).payload
    findings, peak = _traced_peak(lambda: verify_szp_payload(payload, 2**40))
    assert [f.rule for f in findings] == ["VS001"]
    assert peak < 2**20


# ---------------------------------------------------------- library assertion


def test_assert_stream_ok_raises_formaterror() -> None:
    data = (FIXTURES / "truncated_payload.bin").read_bytes()
    with pytest.raises(FormatError, match="VS001"):
        assert_stream_ok(data)


def test_assert_stream_ok_requires_n_elements_for_szp() -> None:
    with pytest.raises(ValueError, match="n_elements"):
        assert_stream_ok(b"\x00" * 32, fmt="szp")


def test_szp_negative_element_count_is_a_usage_error(signal) -> None:
    payload = SZp().compress(signal[:256], 1e-3).payload
    with pytest.raises(ValueError, match="non-negative"):
        verify_szp_payload(payload, -1)


def test_verify_file_unknown_format() -> None:
    with pytest.raises(ValueError, match="unknown stream format"):
        verify_file(FIXTURES / "trailing_bytes.bin", fmt="zip")
