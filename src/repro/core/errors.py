"""Exception hierarchy for the SZOps core."""

from __future__ import annotations

__all__ = [
    "SZOpsError",
    "ConfigError",
    "FormatError",
    "OperationError",
    "ErrorBoundViolation",
]


class SZOpsError(Exception):
    """Base class for all SZOps errors."""


class ConfigError(SZOpsError, ValueError):
    """Invalid compressor configuration (error bound, block size, threads)."""


class FormatError(SZOpsError, ValueError):
    """Malformed or incompatible compressed container.

    ``rule`` is the stream rule id (``VS001``–``VS008``) the container
    broke, when one applies; the message then starts with it.
    """

    def __init__(self, message: str, rule: str | None = None) -> None:
        super().__init__(message)
        self.rule = rule


class OperationError(SZOpsError, ValueError):
    """A compressed-domain operation was invoked with invalid arguments."""


class ErrorBoundViolation(SZOpsError, AssertionError):
    """A validation check found data outside the guaranteed error bound.

    This should never fire for in-contract inputs; it exists so tests and the
    validation harness can assert the compressor's central invariant.
    """
