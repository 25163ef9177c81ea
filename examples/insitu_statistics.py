"""In-situ monitoring of a running simulation with compressed snapshots.

Models the quantum-circuit / in-situ analytics use case from the paper's
introduction: a simulation produces snapshots that must stay compressed in
memory, yet the analysis needs per-step statistics and step-to-step drift.
Everything below — statistics, drift (via the future-work multivariate
subtract), bias correction — happens on compressed streams; the snapshots
are never fully decompressed.  Compression runs block-parallel on the
codec's two-thread backend (the stand-in for the paper's 12-thread CPU
setup).

Run:  python examples/insitu_statistics.py
"""

from __future__ import annotations

import numpy as np

from repro import SZOps, ops
from repro.datasets.synthetic import FieldSpec, synthesize_field

N_STEPS = 5
SHAPE = (32, 64, 64)
EPS = 1e-4


def simulate_step(step: int) -> np.ndarray:
    """A drifting, diffusing field standing in for simulation state."""
    spec = FieldSpec("state", beta=5.0, amplitude=1.0, noise=1e-4, envelope=1.0)
    base = synthesize_field(spec, SHAPE, seed=1234 + step).astype(np.float64)
    drift = 0.05 * step
    return (base + drift).astype(np.float32)


def main() -> None:
    codec = SZOps(n_threads=2)
    history: list = []

    print(f"{'step':>4} {'ratio':>7} {'mean':>10} {'std':>9} {'drift vs prev':>14}")
    for step in range(N_STEPS):
        raw = simulate_step(step)
        c = codec.compress(raw, EPS)

        # per-step statistics from the compressed stream
        stats = ops.summary_statistics(c)

        # step-to-step drift: multivariate subtract + reduction,
        # all in the compressed domain (Section VII future work)
        if history:
            delta = ops.subtract(c, history[-1])
            drift = ops.mean(delta)
        else:
            drift = float("nan")

        history.append(c)
        print(
            f"{step:>4} {c.compression_ratio:>7.2f} {stats['mean']:>+10.5f} "
            f"{stats['std']:>9.5f} {drift:>14.5f}"
        )

    # end-of-run: bias-correct every snapshot in fully compressed space.
    # scalar_subtract rewrites only the outlier plane (no decode, no
    # encode), so a plain loop over the snapshots is cheap.
    global_mean = float(np.mean([ops.mean(c) for c in history]))
    corrected = [ops.scalar_subtract(c, global_mean) for c in history]

    residual_means = [ops.mean(c) for c in corrected]
    print(f"\nbias-corrected snapshot means (should be ~0 around the trend):")
    print("  " + "  ".join(f"{m:+.4f}" for m in residual_means))
    total = sum(c.compressed_nbytes for c in history)
    raw_total = N_STEPS * np.prod(SHAPE) * 4
    print(
        f"\nmemory held: {total / 1e6:.2f} MB compressed vs "
        f"{raw_total / 1e6:.2f} MB raw ({raw_total / total:.1f}x saved)"
    )
    codec.close()


if __name__ == "__main__":
    main()
