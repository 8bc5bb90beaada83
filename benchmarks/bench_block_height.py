#!/usr/bin/env python
"""Level-0 block-height sweeps: TSQR on wide panels, look-ahead CAQR on narrow ones.

``--sweep tsqr`` times ``tsqr`` factor plus ``form_q`` (best of
``--reps``) with level-0 blocks of n, 4n, 8n, 16n, 32n, 64n and 128n
rows (heights above m are skipped), next to ``np.linalg.qr`` (reduced),
and prints a markdown table with the factorization and orthogonality
residuals of the default geometry.  The default policy leaves
``block_rows`` unset, so ``tsqr`` runs ``level0_rows(None, n)`` = 32n-row
blocks; the n column is the square-block geometry that rule replaced.

``--sweep lookahead`` times the look-ahead Householder tree (plan
factor plus ``form_q``, best of ``--reps``) on the graded 110592 x 100
input that ``perfbench``'s ``qr_paper`` workload sends to the tree, at
panel widths 16 and 32, with explicit level-0 heights of 4w to 128w
rows (w the panel width; 4w at width 16 is the paper's 64 x 16) and the
default geometry, whose last, narrower panel gets 32 of its own widths.

Usage::

    python benchmarks/bench_block_height.py                      # both sweeps, a few minutes
    python benchmarks/bench_block_height.py --sweep tsqr --shape 110592x100 --reps 1
    python benchmarks/bench_block_height.py --sweep lookahead --reps 3
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
from repro.runtime import ExecutionPolicy, plan_qr  # noqa: E402

SHAPES = ((110592, 100), (200000, 80), (50000, 256), (16384, 128))
HEIGHTS = (1, 4, 8, 16, 32, 64, 128)  # level-0 block height in multiples of n
LOOKAHEAD_SHAPE = (110592, 100)
LOOKAHEAD_WIDTHS = (16, 32)
LOOKAHEAD_HEIGHTS = (4, 8, 16, 32, 64, 128)  # in multiples of the panel width
SEED = 0


def best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def graded(m: int, n: int) -> np.ndarray:
    """``G diag(logspace(0, -12, n)) V``: the input ``auto`` rejects."""
    rng = np.random.default_rng(SEED)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (rng.standard_normal((m, n)) * np.logspace(0, -12, n)) @ V


def sweep_tsqr(shapes, reps: int) -> None:
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
            cells.append(best_of(reps, lambda: tsqr(A, policy=policy).form_q()))
        lapack = best_of(reps, lambda: np.linalg.qr(A))
        f = tsqr(A)  # the default geometry: level0_rows gives 32n
        Q = f.form_q()
        ferr = factorization_error(A, Q, f.R)
        orth = orthogonality_error(Q)
        times = " | ".join("—" if t is None else f"{t:.2f} s" for t in cells)
        print(f"| {m}×{n} | {times} | {lapack:.2f} s | {ferr:.1e} | {orth:.1e} |", flush=True)
        del A, Q, f


def sweep_lookahead(reps: int) -> None:
    m, n = LOOKAHEAD_SHAPE
    A = graded(m, n)
    head = " | ".join(f"{k}w" for k in LOOKAHEAD_HEIGHTS)
    print(f"| {m}×{n} graded, panel width w | {head} | default | ‖A−QR‖/‖A‖ | ‖QᵀQ−I‖_F |")
    print("|---" * (len(LOOKAHEAD_HEIGHTS) + 4) + "|")
    for w in LOOKAHEAD_WIDTHS:
        cells = []
        for br in [k * w for k in LOOKAHEAD_HEIGHTS] + [None]:
            plan = plan_qr(m, n, policy=ExecutionPolicy(
                path="lookahead", panel_width=w, block_rows=br))
            cells.append(best_of(reps, lambda: plan.factor(A).form_q()))
        f = plan.factor(A)  # the default geometry, kept for the residuals
        Q = f.form_q()
        ferr = factorization_error(A, Q, f.R)
        orth = orthogonality_error(Q)
        times = " | ".join(f"{t:.2f} s" for t in cells)
        print(f"| w = {w} | {times} | {ferr:.1e} | {orth:.1e} |", flush=True)
        del f, Q


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sweep", choices=("tsqr", "lookahead", "all"), default="all")
    ap.add_argument("--shape", action="append", metavar="MxN",
                    help="TSQR sweep shape (repeatable; default: the four below)")
    ap.add_argument("--reps", type=int, default=2)
    args = ap.parse_args()
    shapes = [tuple(map(int, s.split("x"))) for s in args.shape] if args.shape else SHAPES
    if args.sweep in ("tsqr", "all"):
        sweep_tsqr(shapes, args.reps)
    if args.sweep == "all":
        print()
    if args.sweep in ("lookahead", "all"):
        sweep_lookahead(args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
