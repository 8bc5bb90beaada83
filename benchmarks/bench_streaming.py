#!/usr/bin/env python
"""Out-of-core streaming QR soak: throughput, bounded memory, exactness.

One row, three passes — none of which materializes the timed stream:

* **Soak** (timed): generate row blocks on the fly (deterministic per
  block: ``default_rng(seed + block_index)``) and fold them through
  ``stream_qr`` with ``ExecutionPolicy(path="streaming", chunk_rows=C)``.
  Reports steady-state ``streaming_rows_per_sec``, the engine's
  deterministic ``streaming_peak_tracked_mb`` (pure shape arithmetic:
  chunk buffer + factor transients + resident triangles), and the OS
  ``streaming_peak_rss_mb`` (``getrusage`` high-water mark, sampled
  before any verification matrix exists).
* **Bounded-memory probe**: re-run the identical configuration at half
  the stream length; ``streaming_bounded_ratio`` is full/half tracked
  peak.  A streaming engine whose working set is independent of stream
  length reads exactly 1.0 — anything accumulating per-chunk state
  drifts above it.
* **Verify**: regenerate the same blocks, stack them once, and compare
  the streamed R against one-shot batched CAQR sign-canonicalized
  (``streaming_r_gap``, normalized by ||A||).

The full run soaks >= 1e6 rows and writes
``benchmarks/results/BENCH_streaming.json``; ``--quick`` soaks >= 1e5
rows (< 90 s on CI) and writes only when ``--out`` is given.
``tools/check_bench.py --check-streaming`` re-runs the quick row and
diffs it against the committed ``BENCH_streaming_quick.json``.

Usage::

    python benchmarks/bench_streaming.py            # full 1e6-row soak
    python benchmarks/bench_streaming.py --quick    # CI smoke (>=1e5 rows)
    python benchmarks/bench_streaming.py --check    # assert the bounds
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
try:  # self-locating: only extend sys.path when repro is not installed
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.caqr import caqr  # noqa: E402
from repro.core.validation import sign_canonical  # noqa: E402
from repro.runtime import ExecutionPolicy  # noqa: E402
from repro.streaming import stream_qr  # noqa: E402

FULL_ROWS, QUICK_ROWS = 1_000_000, 120_000
N_COLS = 64
CHUNK_ROWS = 4096
BLOCK_ROWS, PANEL_WIDTH = 64, 16
# Producer blocks deliberately mismatch chunk_rows so every soak also
# exercises the ingest re-blocking window (ragged folds at the seams).
SOURCE_BLOCK_ROWS = 2048


def _peak_rss_mb() -> float:
    """Process high-water RSS in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blocks(rows: int, n: int, seed: int, block_rows: int = SOURCE_BLOCK_ROWS):
    """Deterministic on-the-fly row blocks: block i depends only on i.

    Both soak passes and the verification pass regenerate the identical
    stream from (rows, n, seed) — the full matrix never coexists with
    the timed run.
    """
    emitted, i = 0, 0
    while emitted < rows:
        h = min(block_rows, rows - emitted)
        rng = np.random.default_rng(seed + i)
        yield rng.standard_normal((h, n))[:h]
        emitted += h
        i += 1


def _policy(chunk_rows: int) -> ExecutionPolicy:
    return ExecutionPolicy(
        path="streaming",
        chunk_rows=chunk_rows,
        block_rows=BLOCK_ROWS,
        panel_width=PANEL_WIDTH,
    )


def _canon_r(R: np.ndarray) -> np.ndarray:
    _, Rc = sign_canonical(np.eye(min(R.shape)), R)
    return Rc


def _soak(rows: int, n: int, chunk_rows: int, seed: int):
    """One timed streaming pass; returns (engine, seconds)."""
    policy = _policy(chunk_rows)
    t0 = time.perf_counter()
    sq = stream_qr(_blocks(rows, n, seed), policy=policy)
    return sq, time.perf_counter() - t0


def bench_streaming(
    rows: int,
    n: int = N_COLS,
    chunk_rows: int = CHUNK_ROWS,
    seed: int = 2011,
    verify: bool = True,
) -> dict:
    """One soak row for the committed baseline."""
    # Warm the factor path (plan build, BLAS dispatch) off the clock.
    _soak(min(rows, 2 * chunk_rows), n, chunk_rows, seed=seed + 10_000)

    sq, seconds = _soak(rows, n, chunk_rows, seed)
    assert sq.rows_seen == rows
    rss_mb = _peak_rss_mb()  # sampled before any full matrix exists

    half, _ = _soak(rows // 2, n, chunk_rows, seed)
    ratio = sq.peak_tracked_bytes / max(half.peak_tracked_bytes, 1)

    row = {
        "rows": rows,
        "n": n,
        "chunk_rows": chunk_rows,
        "block_rows": BLOCK_ROWS,
        "panel_width": PANEL_WIDTH,
        "streaming_chunks": sq.n_chunks,
        "streaming_merges": max(sq.n_chunks - 1, 0),  # every chunk after the first folds
        "streaming_seconds": seconds,
        "streaming_rows_per_sec": rows / seconds,
        "streaming_peak_tracked_mb": sq.peak_tracked_bytes / 2**20,
        "streaming_peak_rss_mb": rss_mb,
        "streaming_bounded_ratio": float(ratio),
    }

    if verify:
        # The verification matrix is materialized only now, after the
        # RSS high-water mark above was sampled.
        A = np.vstack(list(_blocks(rows, n, seed)))
        one_shot = caqr(A, policy=ExecutionPolicy(
            path="batched", block_rows=BLOCK_ROWS, panel_width=PANEL_WIDTH,
        ))
        scale = max(float(np.linalg.norm(A)), 1.0)
        gap = np.abs(_canon_r(sq.R) - _canon_r(one_shot.R)).max() / scale
        row["streaming_r_gap"] = float(gap)
    return row


def format_row(row: dict) -> str:
    lines = [
        f"soak {row['rows']} x {row['n']} rows in {row['chunk_rows']}-row "
        f"chunks ({row['streaming_chunks']} chunks, "
        f"{row['streaming_merges']} merges):",
        f"  {row['streaming_seconds']:.2f} s  "
        f"{row['streaming_rows_per_sec']:,.0f} rows/s",
        f"  tracked peak {row['streaming_peak_tracked_mb']:.2f} MB  "
        f"rss peak {row['streaming_peak_rss_mb']:.0f} MB  "
        f"full/half tracked ratio {row['streaming_bounded_ratio']:.3f}",
    ]
    if "streaming_r_gap" in row:
        lines.append(f"  R gap vs one-shot CAQR {row['streaming_r_gap']:.3e}")
    return "\n".join(lines)


def check_row(row: dict) -> list[str]:
    """The soak acceptance bounds, asserted locally (``--check``)."""
    failures = []
    if row.get("streaming_r_gap", 0.0) > 1e-12:
        failures.append(
            f"streamed R gap {row['streaming_r_gap']:.3e} above 1e-12"
        )
    if row["streaming_bounded_ratio"] > 1.05:
        failures.append(
            f"tracked peak grew with stream length "
            f"(full/half = {row['streaming_bounded_ratio']:.3f})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke: soak {QUICK_ROWS} rows instead of {FULL_ROWS}",
    )
    ap.add_argument("--rows", type=int, default=None, help="override the soak length")
    ap.add_argument(
        "--no-verify", action="store_true",
        help="skip the one-shot comparison pass (pure-throughput soak)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="assert the soak bounds (R gap, bit parity, bounded ratio)",
    )
    ap.add_argument(
        "--out", type=Path, default=None,
        help="write the row JSON here; the full run defaults to "
        "BENCH_streaming.json, --quick writes nothing without --out",
    )
    args = ap.parse_args(argv)

    rows = args.rows or (QUICK_ROWS if args.quick else FULL_ROWS)
    row = bench_streaming(rows, verify=not args.no_verify)
    print(format_row(row))

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "benchmarks" / "results" / "BENCH_streaming.json"
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"streaming": [row]}, indent=1) + "\n")
        print(f"wrote {out}")

    if args.check:
        failures = check_row(row)
        if failures:
            print("soak bounds FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
        print("soak bounds: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
