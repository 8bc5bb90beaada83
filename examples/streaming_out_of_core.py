"""Single-pass (out-of-core) least squares with streaming QR.

The sequential flat-tree TSQR of Section II-B: row blocks arrive one at
a time (from disk, a sensor, or another process), are re-blocked into
fixed-height chunks, and each chunk's R folds into a resident n x n
triangle — the whole matrix is read exactly once and never held in
memory.  Demonstrated on a least-squares fit solved from the final
triangle.

Run:  python examples/streaming_out_of_core.py
"""

from __future__ import annotations

import numpy as np

from repro.core.triangular import solve_upper
from repro.runtime import ExecutionPolicy
from repro.streaming import stream_qr


def sensor_blocks(n_blocks: int, block_rows: int, coeffs: np.ndarray, rng):
    """Simulated data source: rows of ``[features | noisy response]``."""
    for _ in range(n_blocks):
        t = rng.uniform(-1, 1, block_rows)
        X = np.vander(t, len(coeffs))
        y = X @ coeffs + 0.02 * rng.standard_normal(block_rows)
        yield np.column_stack([X, y])


def main() -> None:
    rng = np.random.default_rng(7)
    coeffs_true = np.array([0.5, -1.25, 0.75, 2.0])
    n_params = len(coeffs_true)

    # Stream the *augmented* matrix [X | y]: its R factor contains both
    # the regression triangle and Q^T y, so the solve needs only the
    # resident (n+1) x (n+1) triangle — classic streaming least squares.
    # The producer's 5,000-row blocks are re-blocked into 4,096-row
    # chunks; the last chunk is ragged.
    policy = ExecutionPolicy(path="streaming", chunk_rows=4096)
    sq = stream_qr(sensor_blocks(12, 5_000, coeffs_true, rng), policy=policy)
    R = sq.R
    x_hat = solve_upper(R[:n_params, :n_params], R[:n_params, n_params])

    print(
        f"streamed {sq.rows_seen} rows in {sq.n_chunks} chunks of "
        f"<= {policy.chunk_rows} rows"
    )
    print(
        f"resident state: one {n_params + 1} x {n_params + 1} triangle "
        f"(tracked peak {sq.peak_tracked_bytes / 1e6:.2f} MB)"
    )
    print(f"coefficient error: {np.linalg.norm(x_hat - coeffs_true):.2e}")
    print(f"final estimate: {np.array2string(x_hat, precision=4)}")
    print(f"ground truth:   {coeffs_true}")


if __name__ == "__main__":
    main()
