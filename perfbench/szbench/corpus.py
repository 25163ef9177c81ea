"""Inputs: the four bundled SDRBench stand-ins, rotated by the seed.

``repro.datasets.generate_fields`` synthesizes each dataset's fields at
their default working shapes, or loads the real SDRBench ``.f32`` files
when ``REPRO_SDRBENCH_DIR`` points at them (see README.md).  Each field
is one fixed realization per corpus tag; the workload seed rotates it,
in flattened order, by a whole number of 64-element blocks.  The codec
works on the flattened array block by block, so a rotation permutes the
blocks: every seed gives different bytes and different streams, but the
same block contents, widths and constant blocks — the same work.  The
spread between runs is then the program's and the machine's, not the
data's.  The field *order* is fixed by the dataset catalog, never by the
seed, so which fields are hot or large does not move between runs.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.datasets import dataset_names, generate_fields

from szbench.common import FAILED, Ledger, bound_slack, derive_seed

#: One corpus item: (dataset, field, float32 array).
Field = tuple[str, str, np.ndarray]

#: Rotation granule: the codec's default block size.
BLOCK = 64
#: Realization seed of corpus tag 0 (repro.datasets' default seed).
BASE_SEED = 20240624


def rotate(arr: np.ndarray, seed: int, *tags: int) -> np.ndarray:
    """Rotate ``arr`` in flattened order by a seed-derived whole number of blocks."""
    n_blocks = arr.size // BLOCK
    if n_blocks < 2:
        return arr
    shift = BLOCK * (derive_seed(seed, *tags) % n_blocks)
    return np.roll(arr.reshape(-1), shift).reshape(arr.shape)


def dataset_fields(
    seed: int,
    tag: int = 0,
    datasets: list[str] | None = None,
    scale: float = 1.0,
) -> list[Field]:
    """Every field of the named datasets (all four by default), in catalog order.

    ``tag`` selects the realization (one per corpus seed); ``seed``
    rotates each field of it.
    """
    out: list[Field] = []
    for index, name in enumerate(dataset_names()):
        if datasets is not None and name not in datasets:
            continue
        fields = generate_fields(name, scale=scale, seed=BASE_SEED + 7919 * tag)
        out.extend(
            (name, field, rotate(arr, seed, tag, index, j))
            for j, (field, arr) in enumerate(fields.items())
        )
    return out


class CodecRounds:
    """Timed, checked re-compress / decompress rounds over a workload's corpus.

    Each round compresses every field (timed under ``("compress", i)``;
    the stream must equal the set-up's byte for byte) and decompresses
    it (``("decompress", i)``; within the error bound).  The workload
    spreads its rounds over its measured op loop (:func:`interleave`),
    so the per-field medians average the machine's speed over the whole
    run rather than over one short burst.  Neither call touches the
    decoded-block cache.
    """

    def __init__(self, codec: Any, fields: list[np.ndarray], streams: list[Any], bound: float):
        self.codec = codec
        self.fields = fields
        self.blobs = [c.to_bytes() for c in streams]
        self.bound = bound
        self.ledger = Ledger()

    def run_round(self) -> None:
        ledger = self.ledger
        for i, (data, blob) in enumerate(zip(self.fields, self.blobs)):
            c = ledger.timed(("compress", i), self.codec.compress, data, self.bound, "rel")
            if c is FAILED:
                continue
            ledger.check("compress", lambda: c.to_bytes() == blob)
            x = ledger.timed(("decompress", i), self.codec.decompress, c)
            if x is not FAILED:
                ledger.check(
                    "decompress",
                    lambda: float(np.max(np.abs(x.astype(np.float64) - data)))
                    <= c.eps + bound_slack(data, c.eps),
                )
        ledger.close()


def interleave(
    plan: list[Any],
    rounds: CodecRounds,
    n_rounds: int,
    execute: Callable[[list[Any], int], None],
    ledger: Ledger,
) -> None:
    """Run ``plan`` in ``n_rounds`` equal slices, one codec round before each.

    ``execute(slice, offset)`` times the slice's ops into ``ledger``,
    whose wall time is closed after every slice, so codec rounds are not
    counted in the op loop's ``ops_per_s``.
    """
    edges = np.linspace(0, len(plan), n_rounds + 1).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rounds.run_round()
        execute(plan[lo:hi], int(lo))
        ledger.close()
