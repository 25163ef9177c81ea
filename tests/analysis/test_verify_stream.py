"""verify-stream: clean passes for real codec output, rejections for the
corrupt-container fixtures, and the library assertion."""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from repro import SZOps, lazy, ops
from repro.analysis import (
    assert_stream_ok,
    verify_file,
    verify_szops_bytes,
    verify_szp_payload,
)
from repro.analysis.findings import Severity
from repro.baselines.szp import SZp
from repro.core.errors import FormatError, OperationError
from repro.core.format import SZOpsCompressed
from repro.service.store import CompressedArrayStore

FIXTURES = Path(__file__).parent / "fixtures"
N_FIXTURE_ELEMENTS = 4096  # geometry baked into make_fixtures.py


def _errors(findings) -> set[str]:
    return {f.rule for f in findings if f.severity is Severity.ERROR}


@pytest.fixture(scope="module")
def signal() -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.cumsum(rng.standard_normal(20_000))


# --------------------------------------------------------------- clean passes


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
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
        ("dtype_huge_subarray.bin", "VS004"),
        ("dtype_not_utf8.bin", "VS004"),
        ("width65.bin", "VS005"),
        ("width33.bin", "VS006"),
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
    store = CompressedArrayStore()
    for admit in (SZOpsCompressed.from_bytes, lambda b: store.put("U", b)):

        def refused() -> str | None:
            with pytest.raises(FormatError) as excinfo:
                admit(data)
            return excinfo.value.rule

        rule, peak = _traced_peak(refused)
        assert rule == "VS001"
        assert peak < 2**20


def test_szp_huge_element_count_rejected_without_allocating(signal) -> None:
    payload = SZp().compress(signal[:256], 1e-3).payload
    findings, peak = _traced_peak(lambda: verify_szp_payload(payload, 2**40))
    assert [f.rule for f in findings] == ["VS001"]
    assert peak < 2**20


# ------------------------------------------ what the codec and ops write


@st.composite
def written_streams(draw) -> SZOpsCompressed:
    """A stream ``compress``, one scalar op or a lazy chain produces.

    Magnitudes reach 1e30 (float64; float16/float32 up to their range),
    and the bound reaches down to 17 decades below the data and to the
    smallest bound :func:`repro.core.config.valid_eps` accepts.
    """
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    info = np.finfo(dtype)
    top = min(30.0, np.log10(info.max) - 1)
    log_scale = draw(st.floats(np.log10(info.tiny), top))
    digits = draw(st.floats(0, 17))
    eps = max(10.0 ** (log_scale - digits), 5e-324)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = 10.0**log_scale * rng.standard_normal(draw(st.integers(1, 700)))
    try:
        c = SZOps().compress(data.astype(dtype), eps)
    except ValueError:  # the data quantize past the int64 range at this bound
        reject()
    names = ["negation", "scalar_add", "scalar_subtract", "scalar_multiply"]
    step = st.tuples(st.sampled_from(names), st.floats(-1e10, 1e10))
    steps = draw(st.lists(step, max_size=3))
    try:
        if draw(st.booleans()) and len(steps) == 1:
            name, scalar = steps[0]
            out = ops.apply_operation(c, name, None if name == "negation" else scalar)
        else:
            chain = lazy(c)
            for name, scalar in steps:
                chain = chain.apply(name, None if name == "negation" else scalar)
            out = chain.materialize()
    except OperationError:  # an op whose result leaves the quantized range
        reject()
    return out


@given(written_streams())
def test_every_written_stream_is_admitted(c: SZOpsCompressed) -> None:
    blob = c.to_bytes()
    assert _errors(verify_szops_bytes(blob)) == set()
    assert CompressedArrayStore().put("U", blob) == 1


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
