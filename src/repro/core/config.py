"""Compressor configuration.

The paper's pipeline has two tunables: the user-specified error bound and
the block size of the 1-D Lorenzo / fixed-length-encoding stage (cuSZp uses
warp-sized 1-D blocks; the CPU SZp port in the paper keeps the same scheme).
We add the thread count of the CPU executor, mirroring the 12-thread OpenMP
configuration of the paper's test machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.errors import ConfigError

__all__ = [
    "SZOpsConfig",
    "ErrorBoundMode",
    "check_eps",
    "valid_eps",
    "resolve_error_bound",
    "VALID_BACKENDS",
    "VALID_BITPACK_KERNELS",
]

#: Execution-backend names accepted by ``SZOpsConfig.backend`` (the
#: constructible registry lives in :mod:`repro.parallel.backends`; the
#: tuple is duplicated here as a literal so the config layer stays free
#: of parallel-layer imports).
VALID_BACKENDS = ("serial", "threads", "processes")

#: Bitpack-kernel names accepted by ``SZOpsConfig.bitpack_kernel`` (the
#: constructible registry lives in :mod:`repro.bitstream.kernels`; same
#: literal-duplication rationale as ``VALID_BACKENDS``).  ``"auto"``
#: dispatches on width/size; ``"numba"`` falls back to ``"wordpack"``
#: when the optional dependency is missing.
VALID_BITPACK_KERNELS = ("auto", "bitarray", "wordpack", "numba")


#: Error-bound interpretation, matching SDRBench / SZ conventions:
#: ``"abs"`` — the bound is an absolute value tolerance;
#: ``"rel"`` — the bound is a fraction of the data's value range
#: (value-range-relative, the convention the paper's 1E-4 experiments use
#: for "relative error bound").
ErrorBoundMode = str

_VALID_MODES = ("abs", "rel")


def valid_eps(eps: float) -> bool:
    """True for a positive error bound whose bin width ``2 * eps`` is finite.

    This is also the stream-header predicate (``SZOpsCompressed.from_bytes``
    and ``verify-stream``).  NaN slips ``eps <= 0``; ±inf, and any bound
    above ``float_max / 2``, overflows the bin width ``2 * eps`` to inf, so
    every representative ``2 * eps * q`` would decompress to NaN or inf.
    """
    return bool(eps > 0 and math.isfinite(2.0 * float(eps)))


def check_eps(eps: float) -> None:
    """Raise :class:`ConfigError` unless :func:`valid_eps` accepts ``eps``."""
    if not valid_eps(eps):
        raise ConfigError(
            f"error bound must be positive and finite with a finite bin "
            f"width 2*eps, got {eps}"
        )


def resolve_error_bound(
    error_bound: float, mode: ErrorBoundMode, value_range: float
) -> float:
    """Convert a (bound, mode) pair into an absolute error bound.

    ``value_range`` is ``max(data) - min(data)`` and is only consulted in
    ``"rel"`` mode.  A zero value range (constant data) degrades to the
    smallest positive bound that still quantizes the constant exactly; we use
    the absolute bound equal to the relative bound itself so the pipeline
    stays well-defined.
    """
    check_eps(error_bound)
    if mode == "abs":
        return float(error_bound)
    if mode == "rel":
        if value_range < 0:
            raise ConfigError("value range must be non-negative")
        if not math.isfinite(value_range):
            raise ConfigError(
                f"value range {value_range} is not finite; a relative bound "
                "needs finite data"
            )
        if value_range == 0:
            return float(error_bound)
        return float(error_bound) * float(value_range)
    raise ConfigError(f"error-bound mode must be one of {_VALID_MODES}, got {mode!r}")


@dataclass(frozen=True)
class SZOpsConfig:
    """Static configuration of an :class:`~repro.core.compressor.SZOps` instance.

    Parameters
    ----------
    block_size:
        Elements per 1-D block over the C-order flattened array (default 64,
        matching the block geometry implied by the paper's Table VI counts).
        Must be a
        positive multiple of 8 so that per-block sign bitmaps and payload
        sections stay byte-aligned, which is what lets independently
        compressed chunks be concatenated by the thread-parallel executor.
    n_threads:
        Workers for the blockwise execution backend.  ``1`` runs inline
        regardless of the backend choice.
    backend:
        Execution substrate for the chunked hot paths: ``"serial"``
        (inline, same chunking), ``"threads"`` (GIL-sharing pool — wins
        while NumPy kernels dominate), or ``"processes"`` (warm worker
        pool with shared-memory zero-copy block transport — wins when the
        Python-level encode/decode group loops dominate).  All backends
        produce bit-identical streams; see ``docs/PARALLEL.md``.
    bitpack_kernel:
        Bitpack kernel variant for the BF stage: ``"auto"`` (dispatch on
        width/size), ``"bitarray"`` (per-bit reference), ``"wordpack"``
        (word-level shift-or), or ``"numba"`` (JIT, requires the
        ``[speed]`` extra; silently falls back to ``wordpack``).  All
        kernels produce bit-identical streams; see ``docs/KERNELS.md``.
    """

    block_size: int = 64
    n_threads: int = 1
    backend: str = "threads"
    bitpack_kernel: str = "auto"
    #: Reserved for forward compatibility; containers record it.
    format_version: int = field(default=1, repr=False)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigError(f"block_size must be positive, got {self.block_size}")
        if self.block_size % 8:
            raise ConfigError(
                f"block_size must be a multiple of 8 for byte-aligned block "
                f"sections, got {self.block_size}"
            )
        if self.n_threads <= 0:
            raise ConfigError(f"n_threads must be positive, got {self.n_threads}")
        if self.backend not in VALID_BACKENDS:
            raise ConfigError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        if self.bitpack_kernel not in VALID_BITPACK_KERNELS:
            raise ConfigError(
                f"bitpack_kernel must be one of {VALID_BITPACK_KERNELS}, "
                f"got {self.bitpack_kernel!r}"
            )
