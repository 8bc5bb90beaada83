#!/usr/bin/env python
"""TSQR level-0 block-height sweep for matrices wider than ``block_rows``.

Times ``tsqr`` factor plus ``form_q`` (best of ``--reps``) with level-0
blocks of n, 4n, 8n, 16n, 32n, 64n and 128n rows (heights above m are
skipped), next to ``np.linalg.qr`` (reduced), and prints a markdown
table with the factorization and orthogonality residuals of the default
geometry.  The default policy asks for 64-row blocks, below the width
of every shape here, so ``tsqr`` runs ``level0_rows(64, n)`` = 32n-row
blocks; the n column is the square-block geometry that rule replaced.

Usage::

    python benchmarks/bench_block_height.py                      # four shapes, a few minutes
    python benchmarks/bench_block_height.py --shape 110592x100 --reps 1
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
try:  # self-locating: only extend sys.path when repro is not installed
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.tsqr import tsqr  # noqa: E402
from repro.core.validation import factorization_error, orthogonality_error  # noqa: E402
from repro.runtime import ExecutionPolicy  # noqa: E402

SHAPES = ((110592, 100), (200000, 80), (50000, 256), (16384, 128))
HEIGHTS = (1, 4, 8, 16, 32, 64, 128)  # level-0 block height in multiples of n
SEED = 0


def best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", action="append", metavar="MxN",
                    help="shape to sweep (repeatable; default: the four below)")
    ap.add_argument("--reps", type=int, default=2)
    args = ap.parse_args()
    shapes = [tuple(map(int, s.split("x"))) for s in args.shape] if args.shape else SHAPES

    head = " | ".join("n" if k == 1 else f"{k}n" for k in HEIGHTS)
    print(f"| shape | {head} | `np.linalg.qr` | ‖A−QR‖/‖A‖ | ‖QᵀQ−I‖_F |")
    print("|---" * (len(HEIGHTS) + 4) + "|")
    for m, n in shapes:
        A = np.random.default_rng(SEED).standard_normal((m, n))
        cells = []
        for k in HEIGHTS:
            if k * n > m:
                cells.append(None)
                continue
            policy = ExecutionPolicy(block_rows=k * n)
            cells.append(best_of(args.reps, lambda: tsqr(A, policy=policy).form_q()))
        lapack = best_of(args.reps, lambda: np.linalg.qr(A))
        f = tsqr(A)  # the default 64-row request: level0_rows gives 32n
        Q = f.form_q()
        ferr = factorization_error(A, Q, f.R)
        orth = orthogonality_error(Q)
        times = " | ".join("—" if t is None else f"{t:.2f} s" for t in cells)
        print(f"| {m}×{n} | {times} | {lapack:.2f} s | {ferr:.1e} | {orth:.1e} |", flush=True)
        del A, Q, f
    return 0


if __name__ == "__main__":
    sys.exit(main())
