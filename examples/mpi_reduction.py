"""Compressed collective statistics across simulated MPI ranks.

The paper's introduction motivates SZOps with error-bounded MPI collectives:
in the traditional scheme every rank fully decompresses its stream before a
reduction.  Here four simulated ranks each hold a compressed partition of a
Hurricane-style field and compute global statistics two ways:

* traditional: each rank decompresses everything, reduces raw moments;
* SZOps: each rank extracts quantized partial sums from its *compressed*
  stream (constant blocks in closed form) and reduces only five exact integers.

Run:  python examples/mpi_reduction.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import SZOps
from repro.datasets import generate_fields
from repro.parallel import (
    compressed_stats_allreduce,
    run_spmd,
    traditional_stats_allreduce,
)

N_RANKS = 4


def main() -> None:
    field = generate_fields("Hurricane", fields=["TC"])["TC"]
    parts = np.array_split(field.reshape(-1), N_RANKS)
    codec = SZOps()
    blobs = [codec.compress(p, error_bound=1e-4) for p in parts]
    sizes = [b.compressed_nbytes for b in blobs]
    print(
        f"{N_RANKS} ranks, {field.nbytes / 1e6:.2f} MB total, "
        f"compressed to {sum(sizes) / 1e6:.2f} MB"
    )

    # ------------------------------------------------------------------
    t0 = time.perf_counter()
    trad = run_spmd(
        N_RANKS, lambda comm: traditional_stats_allreduce(comm, codec, blobs[comm.rank])
    )[0]
    t_trad = time.perf_counter() - t0

    t0 = time.perf_counter()
    comp = run_spmd(
        N_RANKS, lambda comm: compressed_stats_allreduce(comm, blobs[comm.rank])
    )[0]
    t_comp = time.perf_counter() - t0

    print(f"traditional allreduce: mean={trad['mean']:+.5f} std={trad['std']:.5f} "
          f"[{1e3 * t_trad:.1f} ms, every rank decompresses {field.nbytes / N_RANKS / 1e6:.2f} MB]")
    print(f"compressed  allreduce: mean={comp['mean']:+.5f} std={comp['std']:.5f} "
          f"[{1e3 * t_comp:.1f} ms, 5 exact ints per rank]")
    print(f"agreement: |d_mean|={abs(trad['mean'] - comp['mean']):.2e} "
          f"|d_std|={abs(trad['std'] - comp['std']):.2e}")


if __name__ == "__main__":
    main()
