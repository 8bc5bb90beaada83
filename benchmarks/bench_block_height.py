#!/usr/bin/env python
"""Row-block sweeps: TSQR level-0 heights, look-ahead panel widths, IALM chunks, geqrt nb.

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

``--sweep panel`` times the look-ahead plan's ``execute`` (validation,
factor and ``form_q``) at panel widths 16, 32, 64, 128 and 256 and
unset, which on a tall matrix is one full-width panel, and prints the
median and range of ``--reps`` rounds per cell.  The cells of a shape
are interleaved, so a slow spell on a shared host lands on all of them,
and each timed call runs right after an untimed one of the same cell,
as a reused plan runs: one cell's BLAS pool never slows the next (see
``--sweep handoff``).  Widths of at least ``min(m, n)`` are one panel,
the unset cell, and are skipped.  The 110592 x 100 input is the graded
one; the rest are Gaussian, and 300 x 2000 is the wide case, where
unset means 16.

``--sweep handoff`` probes the two-pool handoff: NumPy and SciPy link
separate OpenBLAS builds, each with its own thread pool, and a threaded
call in one runs slower while the other's workers are still spinning.
It times a NumPy 110592 x 100 x 100 GEMM at 0 to 0.4 s after a burst of
ten SciPy ``dgeqrt`` calls on 3200 x 100 blocks (TSQR's level-0
factor), the burst at the same gaps after the GEMM, and both after a
1 s rest (median of ``--reps`` rounds, each probe from a rested start).

``--sweep ialm`` times the IALM loop's two elementwise passes
(:class:`repro.rpca.ialm.IALMWorkspace`: pass 1 forms the SVT input,
pass 2 the shrinkage, residual and dual update) at 110592 x 100 with
row chunks of 16 KB to 8 MB per operand, next to the whole-array
expressions they replace.  Rounds run every cell once, each cell on a
fresh workspace after an untimed pass of each kind, and the table
reports the best of ``--reps`` rounds; the fastest budget is
``repro.rpca.ialm.CHUNK_BYTES``.

``--sweep geqrt`` times LAPACK ``dgeqrt``, the block factor of every
batched path, at inner block sizes ``nb`` of 8 to ``n`` on the slices
the two gated workloads factor: TSQR's 3200 x 100 level-0 blocks (34
per 110592 x 100 factor) and the look-ahead's 512 x 16 blocks (216 per
16-wide panel).  Every round runs each cell once, each call on a fresh
copy of the same Gaussian slices (the copies are untimed), and the table
reports the median and range per slice over ``--reps`` rounds.  The
kernel runs ``nb = n``: with ``nb < n`` LAPACK returns a blocked
``(nb, n)`` T, which :func:`repro.smallblas.wy.orgqr_wy` and
:func:`~repro.smallblas.wy.apply_wy` cannot use as they are.

Usage::

    python benchmarks/bench_block_height.py                      # tsqr and lookahead sweeps, a few minutes
    python benchmarks/bench_block_height.py --sweep tsqr --shape 110592x100 --reps 1
    python benchmarks/bench_block_height.py --sweep lookahead --reps 3
    python benchmarks/bench_block_height.py --sweep panel --reps 5     # ~6 min
    python benchmarks/bench_block_height.py --sweep handoff --reps 7   # ~1 min
    python benchmarks/bench_block_height.py --sweep ialm --reps 7      # ~1 min
    python benchmarks/bench_block_height.py --sweep geqrt --reps 11    # ~1 min
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
from repro.rpca.ialm import CHUNK_BYTES, IALMWorkspace  # noqa: E402
from repro.rpca.shrinkage import shrink  # noqa: E402
from repro.runtime import ExecutionPolicy, plan_qr  # noqa: E402

SHAPES = ((110592, 100), (200000, 80), (50000, 256), (16384, 128))
HEIGHTS = (1, 4, 8, 16, 32, 64, 128)  # level-0 block height in multiples of n
LOOKAHEAD_SHAPE = (110592, 100)
LOOKAHEAD_WIDTHS = (16, 32)
LOOKAHEAD_HEIGHTS = (4, 8, 16, 32, 64, 128)  # in multiples of the panel width
PANEL_SHAPES = ((110592, 100), (200000, 80), (50000, 256), (16384, 64), (16384, 128),
                (16384, 512), (4096, 1024), (2048, 2048), (300, 2000))
PANEL_WIDTHS = (16, 32, 64, 128, 256, None)  # None: unset, the engine's default
HANDOFF_SHAPE = (110592, 100)
HANDOFF_BLOCK_ROWS, HANDOFF_BURST = 3200, 10  # ten dgeqrt calls on level-0 blocks
HANDOFF_GAPS = (0.0, 0.05, 0.1, 0.2, 0.4)  # idle seconds between the two calls
REST_S = 1.0
IALM_SHAPE = (110592, 100)
IALM_BUDGETS = tuple(16 * 1024 * 2**k for k in range(10))  # 16 KB .. 8 MB per operand chunk
GEQRT_SLICES = ((3200, 100, 34), (512, 16, 216))  # (rows, cols, slices per factor)
GEQRT_NBS = (8, 16, 32, 48, 64, None)  # None: nb = n, what the kernel runs
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


def _median(xs: list[float]) -> float:
    return sorted(xs)[len(xs) // 2]


def sweep_panel(shapes, reps: int) -> None:
    head = " | ".join("unset" if w is None else f"{w}" for w in PANEL_WIDTHS)
    print(f"| shape, ms: median [min–max] of {reps} | {head} | unset / 16 |")
    print("|---" * (len(PANEL_WIDTHS) + 2) + "|")
    for m, n in shapes:
        if (m, n) == LOOKAHEAD_SHAPE:
            A = graded(m, n)
        else:
            A = np.random.default_rng(SEED).standard_normal((m, n))
        plans = {
            w: plan_qr(m, n, policy=ExecutionPolicy(path="lookahead", panel_width=w))
            for w in PANEL_WIDTHS
            if w is None or w < min(m, n)
        }
        samples: dict = {w: [] for w in plans}
        for _ in range(reps):
            for w, plan in plans.items():
                plan.execute(A)  # back to back: the timed call's pool is its own
                t0 = time.perf_counter()
                plan.execute(A)
                samples[w].append(time.perf_counter() - t0)
        cells = [
            f"{_median(samples[w]) * 1e3:.0f} [{min(samples[w]) * 1e3:.0f}–"
            f"{max(samples[w]) * 1e3:.0f}]" if w in samples else "—"
            for w in PANEL_WIDTHS
        ]
        ratio = (f"{_median(samples[None]) / _median(samples[16]):.2f}"
                 if 16 in samples else "—")
        unset_w = plans[None].policy.effective_panel_width(m, n)
        label = f"{m}×{n}" + (" graded" if (m, n) == LOOKAHEAD_SHAPE else "")
        print(f"| {label} (unset = {unset_w}) | {' | '.join(cells)} | {ratio} |", flush=True)
        del A, plans


def sweep_handoff(reps: int) -> None:
    from scipy.linalg import lapack

    m, n = HANDOFF_SHAPE
    rng = np.random.default_rng(SEED)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((n, n))
    C = np.empty((m, n))
    blocks = [np.asfortranarray(A[i * HANDOFF_BLOCK_ROWS : (i + 1) * HANDOFF_BLOCK_ROWS])
              for i in range(HANDOFF_BURST)]

    def gemm() -> None:
        np.matmul(A, B, out=C)

    def burst() -> None:
        for blk in blocks:
            lapack.dgeqrt(n, blk)

    def timed(second, first=None, gap: float = 0.0) -> float:
        """Seconds of ``second``, ``gap`` s after ``first``, from rest."""
        time.sleep(REST_S)
        if first is not None:
            first()
            time.sleep(gap)
        t0 = time.perf_counter()
        second()
        return time.perf_counter() - t0

    rows = (
        (f"NumPy {m}×{n}×{n} GEMM, after the SciPy burst", gemm, burst),
        (f"SciPy burst ({HANDOFF_BURST} `dgeqrt`, {HANDOFF_BLOCK_ROWS}×{n}), after the NumPy GEMM",
         burst, gemm),
    )
    cells = [(second, first, g) for _, second, first in rows for g in HANDOFF_GAPS]
    cells += [(second, None, 0.0) for _, second, _ in rows]
    # Rounds run every cell once, so a slow spell on a shared host
    # lands on all of them rather than on one.
    samples = [[] for _ in cells]
    for _ in range(reps):
        for ts, cell in zip(samples, cells):
            ts.append(timed(*cell))
    ms = [f"{_median(ts) * 1e3:.0f} ms" for ts in samples]
    g = len(HANDOFF_GAPS)
    gaps = " | ".join(f"after {gap:g} s" for gap in HANDOFF_GAPS)
    print(f"| timed call (median of {reps}) | {gaps} | rested ({REST_S:g} s idle) |")
    print("|---" * (g + 2) + "|")
    for i, (label, _, _) in enumerate(rows):
        print(f"| {label} | " + " | ".join(ms[i * g : (i + 1) * g] + [ms[2 * g + i]]) + " |")


def sweep_ialm(reps: int) -> None:
    m, n = IALM_SHAPE
    rng = np.random.default_rng(SEED)
    M = rng.standard_normal((m, n))
    Y0 = M / 10.0
    L0 = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    mu, tau = 1.0, 0.5

    def workspace(budget: int) -> IALMWorkspace:
        ws = IALMWorkspace(M, Y0.copy(), chunk_bytes=budget)
        np.copyto(ws.L, L0)
        return ws

    def whole_array(ws: IALMWorkspace):
        def pass1() -> None:
            ws.X = M - ws.S + ws.Y / mu

        def pass2() -> None:
            ws.S = shrink(M - ws.L + ws.Y / mu, tau)
            residual = M - ws.L - ws.S
            ws.Y = ws.Y + mu * residual
            ws.X = residual

        return pass1, pass2

    def fused(ws: IALMWorkspace):
        return (lambda: ws.svt_input(mu)), (lambda: ws.update(ws.L, mu, tau))

    cells = [(b, fused) for b in IALM_BUDGETS] + [(CHUNK_BYTES, whole_array)]
    best = [[float("inf"), float("inf")] for _ in cells]
    for _ in range(reps):
        for cell, (budget, kind) in zip(best, cells):
            ws = workspace(budget)
            passes = kind(ws)
            for k, fn in enumerate(passes):
                fn()  # untimed: faults in the pages the timed call writes
                t0 = time.perf_counter()
                fn()
                cell[k] = min(cell[k], time.perf_counter() - t0)
            del ws, passes
    totals = [sum(c) for c in best[:-1]]
    win = int(np.argmin(totals))
    print(f"IALM passes at {m}×{n}, ms, best of {reps}")
    print()
    print("| chunk per operand | rows | pass 1 | pass 2 | total |")
    print("|---|---|---|---|---|")
    for i, ((budget, kind), (p1, p2)) in enumerate(zip(cells, best)):
        if kind is whole_array:
            label, rows = "whole array", f"{m}"
        else:
            label = f"{budget // 1024} KB" if budget < 2**20 else f"{budget // 2**20} MB"
            label += " (fastest)" if i == win else ""
            rows = f"{max(1, min(m, budget // (n * 8)))}"
        print(f"| {label} | {rows} | {p1 * 1e3:.1f} | {p2 * 1e3:.1f} | {(p1 + p2) * 1e3:.1f} |",
              flush=True)


def sweep_geqrt(reps: int) -> None:
    from scipy.linalg import lapack

    rng = np.random.default_rng(SEED)
    cells = []
    for m, n, count in GEQRT_SLICES:
        src = [np.asfortranarray(rng.standard_normal((m, n))) for _ in range(count)]
        work = [np.empty_like(a, order="F") for a in src]
        for nb in GEQRT_NBS:
            if nb is None or nb < n:
                cells.append(((m, n, count), nb or n, src, work))
    samples = [[] for _ in cells]
    for _ in range(reps):
        for ts, (_, nb, src, work) in zip(samples, cells):
            for a, w in zip(src, work):
                np.copyto(w, a)
            t0 = time.perf_counter()
            for w in work:
                lapack.dgeqrt(nb, w, overwrite_a=1)
            ts.append((time.perf_counter() - t0) / len(work))
    print(f"`dgeqrt` per slice, µs: median [min–max] of {reps} rounds")
    print()
    print("| slice (per factor) | nb | µs per slice | vs nb = n |")
    print("|---|---|---|---|")
    kernel = {shape: _median(ts) for (shape, nb, _, _), ts in zip(cells, samples)
              if nb == shape[1]}
    for (shape, nb, _, _), ts in zip(cells, samples):
        m, n, count = shape
        note = " (kernel)" if nb == n else ""
        print(f"| {m}×{n} (×{count}) | {nb}{note} | {_median(ts) * 1e6:.0f} "
              f"[{min(ts) * 1e6:.0f}–{max(ts) * 1e6:.0f}] | "
              f"{_median(ts) / kernel[shape]:.2f} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sweep", choices=("tsqr", "lookahead", "panel", "handoff", "ialm", "geqrt",
                                        "all"),
                    default="all")
    ap.add_argument("--shape", action="append", metavar="MxN",
                    help="TSQR or panel sweep shape (repeatable; default: the sweep's own)")
    ap.add_argument("--reps", type=int, default=2)
    args = ap.parse_args()
    shapes = [tuple(map(int, s.split("x"))) for s in args.shape] if args.shape else None
    if args.sweep in ("tsqr", "all"):
        sweep_tsqr(shapes or SHAPES, args.reps)
    if args.sweep == "all":
        print()
    if args.sweep in ("lookahead", "all"):
        sweep_lookahead(args.reps)
    if args.sweep == "panel":
        sweep_panel(shapes or PANEL_SHAPES, args.reps)
    if args.sweep == "handoff":
        sweep_handoff(args.reps)
    if args.sweep == "ialm":
        sweep_ialm(args.reps)
    if args.sweep == "geqrt":
        sweep_geqrt(args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
