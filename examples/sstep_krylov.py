"""s-step Krylov basis orthogonalization — the paper's most extreme case.

"An even more extreme case of tall-skinny matrices are found in s-step
Krylov methods ... The dimensions of this QR factorization can be
millions of rows by less than ten columns."  This example builds s basis
vectors of the Krylov sequence {v, Av, ..., A^{s-1}v} for a large sparse
operator (3-point Laplacian, applied matrix-free), orthogonalizes them
with TSQR, and shows why naive powers need the QR at all (the basis
collapses toward the dominant eigenvector).

Run:  python examples/sstep_krylov.py
"""

from __future__ import annotations

import numpy as np

from repro import ExecutionPolicy, orthogonality_error, simulate_caqr, tsqr
from repro.core.validation import factorization_error


def laplacian_matvec(v: np.ndarray) -> np.ndarray:
    """Matrix-free 1-D Laplacian (tridiagonal [-1, 2, -1])."""
    out = 2.0 * v
    out[:-1] -= v[1:]
    out[1:] -= v[:-1]
    return out


def main() -> None:
    n_rows, s = 1_000_000, 8
    rng = np.random.default_rng(3)

    # Build the s-step basis matrix-free: K = [v, Av, A^2 v, ...].
    K = np.empty((n_rows, s))
    v = rng.standard_normal(n_rows)
    K[:, 0] = v
    for j in range(1, s):
        K[:, j] = laplacian_matvec(K[:, j - 1])

    # Without orthogonalization, the monomial basis degenerates: its
    # columns align and the Gram matrix becomes nearly singular.
    G = K.T @ K
    print(f"monomial-basis Gram condition number: {np.linalg.cond(G):.2e}")

    # TSQR orthogonalizes the basis in one pass over the million rows.
    f = tsqr(K, policy=ExecutionPolicy(block_rows=4096, tree_shape="quad"))
    Q = f.form_q()
    print(f"TSQR orthogonality error:  {orthogonality_error(Q):.2e}")
    print(f"TSQR factorization error:  {factorization_error(K, Q, f.R):.2e}")
    print(f"reduction-tree levels:     {f.tree.n_levels} (quad tree over {f.tree.n_blocks} blocks)")

    # The communication argument at this shape: modeled GPU times.
    r = simulate_caqr(n_rows, s)
    print(f"\nmodeled C2050 CAQR time for {n_rows} x {s}: {r.seconds * 1e3:.2f} ms "
          f"({r.gflops:.1f} GFLOPS; arithmetic intensity {r.counters.arithmetic_intensity:.2f} flops/byte)")


if __name__ == "__main__":
    main()
