"""Negation in fully compressed space (Section V-A.1).

Negating every element of the represented array only requires flipping the
stored sign bitmap and negating the outlier plane — the fixed-length payload
(the delta magnitudes) is untouched, so the operation runs in *fully
compressed space*: no payload byte is read or written.

The result is exact: ``decompress(negate(c)) == -decompress(c)`` bit for
bit, and the error bound versus the negated original data is therefore the
same ``eps`` the input stream carried.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.format import SZOpsCompressed

__all__ = ["negate"]

#: How each exported operation propagates the stream's error bound
#: (vocabulary in docs/ANALYSIS.md, checked by lint rule SZL005).
ERROR_PROPAGATION = {"negation": "exact"}


def _flip_sign_bits(sign_bytes: np.ndarray, n_bits: int) -> np.ndarray:
    """Invert a packed bitmap, keeping the final byte's padding bits zero."""
    flipped = np.bitwise_xor(sign_bytes, np.uint8(0xFF))
    pad = sign_bytes.size * 8 - n_bits
    if pad and flipped.size:
        # Clear the low `pad` bits of the last byte so serialization stays
        # canonical (decoders never read them, but round-trip equality of
        # the byte stream is a nice property to keep).
        flipped[-1] &= np.uint8((0xFF << pad) & 0xFF)
    return flipped


def negate(c: SZOpsCompressed) -> SZOpsCompressed:
    """Return a compressed stream representing the elementwise negation.

    Cost: O(n_blocks) for the outlier plane plus O(sign-section bytes) for
    the bitmap flip — a small, fixed fraction of the compressed size and
    independent of the payload, which is why Figure 5/6 show negation as
    the fastest SZOps operation.  The result shares the width and payload
    planes with ``c``.
    """
    n_sign_bits = int(c.stored_lengths().sum())
    return replace(
        c,
        outliers=-c.outliers,
        sign_bytes=_flip_sign_bits(c.sign_bytes, n_sign_bits),
    )
