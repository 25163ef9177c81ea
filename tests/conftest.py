"""Shared fixtures for the SZOps reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import SZOps
from repro.core.validate import bound_slack

# Hypothesis budget profiles.  CI runs the bounded "ci" profile (see
# .github/workflows/ci.yml); "thorough" is for local deep sweeps.
settings.register_profile("ci", max_examples=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", max_examples=60, deadline=None)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240624)


@pytest.fixture
def codec() -> SZOps:
    return SZOps()


@pytest.fixture
def smooth_1d(rng) -> np.ndarray:
    """Random-walk signal: smooth, non-trivial deltas (float32)."""
    return np.cumsum(rng.normal(scale=5e-3, size=40_000)).astype(np.float32)


@pytest.fixture
def smooth_3d(rng) -> np.ndarray:
    """Separable wave field with mild noise (float32, 3-D)."""
    x = np.linspace(0, 3 * np.pi, 48)
    f = (
        np.sin(x)[:, None, None]
        * np.cos(0.7 * x)[None, :, None]
        * np.sin(0.4 * x + 1.0)[None, None, :]
    )
    f = f + rng.normal(scale=5e-3, size=f.shape)
    return f.astype(np.float32)


@pytest.fixture
def plateau_field(rng) -> np.ndarray:
    """Field with a constant slab -> guaranteed constant blocks."""
    f = rng.normal(size=(32, 64)).astype(np.float32)
    f = np.cumsum(f, axis=1) * 1e-2
    f[:10] = 0.25  # 10 of 32 rows constant
    return f


def max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))))


@pytest.fixture
def assert_within_bound():
    """Callable asserting |a - b| <= eps (+ float32 cast slack)."""

    def check(original, reconstructed, eps):
        slack = bound_slack(original, eps)
        err = max_err(original, reconstructed)
        assert err <= eps + slack, f"max error {err} > eps {eps} (+slack {slack})"
        return err

    return check
