#!/usr/bin/env python
"""CI perf-regression gate: re-run the bench grid, diff against a baseline.

``benchmarks/bench_realtime.py`` writes per-shape metrics (seconds per
path, speedups, residual gaps, launch counts and the launch-stream
fingerprint) to a committed JSON artifact.  This tool re-measures the
same shapes and fails (exit 1) when the fresh numbers regress past the
per-metric tolerances:

* ``seconds_*`` — measured time must not exceed ``baseline * (1 + tol)``
  (default ±25%; faster is never a failure).
* ``*speedup*`` ratios — must not fall below ``baseline / (1 + tol)``.
* residual gaps — the bench's own fixed bounds, re-asserted here:
  ``caqr``/``tsqr`` path gaps < 1e-12, look-ahead < 1e-14, plan == 0.
* ``ferr_*`` / ``orth_*`` — within 10x of the baseline (loose: these are
  shape- and rng-stable, so 10x means a numerics regression, not noise).
* CholeskyQR2 acceptance bounds, absolute rather than relative: the
  fast-path orthogonality errors stay below 1e-14, the
  ``cholqr2_vs_lookahead`` speed ratio never falls below 2.0 (on shapes
  whose baseline clears the floor with margin), and the ``auto`` guard
  overhead stays below 1.5x plain cholqr2.
* ``launches`` and ``launch_stream_sha256_16`` — exact (the modeled
  launch stream moving is a silent behavioural change, never noise).

The sharded tier (``benchmarks/bench_distributed.py``) is gated under
``--check-sharded`` / ``--sharded-only``:

* ``sharded_bit_gap`` — exactly 0.0: the sharded R must be bit-identical
  to the same shard/reduction schedule executed without the
  communicator (transport exactness is a correctness contract, not a
  tolerance).
* ``sharded_r_gap`` — sign-canonicalized agreement with the
  single-process tree, < 1e-12.
* ``sharded_strong_speedup_p4`` — relative floor plus the absolute
  ``MIN_BOUNDS`` floor of 2.0 (the acceptance criterion: four modeled
  devices must at least halve the 2M x 1000 target's runtime).
* comm counts and the schedule fingerprint — exact: the reduction
  schedule or traffic silently changing is a behavioural change.

The streaming tier (``benchmarks/bench_streaming.py``) is gated under
``--check-streaming`` / ``--streaming-only``:

* ``streaming_rows_per_sec`` — a throughput floor (mirror of the time
  ceilings): the soak must not slow past the tolerance.
* ``streaming_peak_tracked_mb`` — the engine's deterministic working-set
  high-water mark, against both the relative memory ceiling and an
  absolute ``MAX_BOUNDS`` ceiling set well under 2x the committed
  baseline, so the self-test's injected 2x memory blow-up always trips.
* ``streaming_peak_rss_mb`` — the OS high-water mark, relative ceiling.
* ``streaming_bounded_ratio`` — tracked peak at the full stream length
  over the half-length probe; absolute ceiling 1.05.  Peak memory
  growing with stream length is the one regression an out-of-core
  pipeline must never ship, and it cannot hide inside run-to-run noise
  (a healthy engine reads exactly 1.0).
* ``streaming_r_gap`` — sign-canonicalized agreement between the
  streamed R and one-shot CAQR, < 1e-12.

The serving tier (``benchmarks/bench_serving.py``) is gated the same
way under ``--serving`` / ``--serving-only``:

* ``*qps*`` — throughput floors, the mirror image of the time ceilings:
  measured requests/sec must not fall below ``baseline / (1 + tol)``.
* ``serving_coalesce_speedup`` — relative floor plus the absolute
  ``MIN_BOUNDS`` floor (coalescing silently degrading to per-request
  dispatch reads ~1.0 and cannot hide inside noise tolerances).
* ``serving_p50/p95/p99_ms`` — absolute ceilings (``MAX_BOUNDS``): they
  trip when the coalesced tier stops keeping up with the open-loop
  offered rate and queueing delay diverges, not on percentile noise.

Usage::

    python tools/check_bench.py --quick                 # CI gate
    python tools/check_bench.py                         # full grid
    python tools/check_bench.py --quick --self-test     # gate the gate
    python tools/check_bench.py --quick --inject-slowdown 2.0   # must exit 1
    python tools/check_bench.py --quick --serving-only  # serving tier only
    python tools/check_bench.py --quick --sharded-only  # sharded tier only
    python tools/check_bench.py --quick --streaming-only  # soak tier only
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
try:  # self-locating: only extend sys.path when repro is not installed
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_realtime import bench_shape  # noqa: E402

QUICK_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_quick.json"
FULL_BASELINE = REPO_ROOT / "BENCH_caqr.json"
SERVING_QUICK_BASELINE = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_serving_quick.json"
)
SHARDED_QUICK_BASELINE = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_sharded_quick.json"
)
SHARDED_FULL_BASELINE = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_distributed.json"
)
STREAMING_QUICK_BASELINE = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_streaming_quick.json"
)
STREAMING_FULL_BASELINE = (
    REPO_ROOT / "benchmarks" / "results" / "BENCH_streaming.json"
)

# Residual-gap metrics carry the bench's own hard bounds instead of a
# relative tolerance (they pin cross-path agreement, not speed).
GAP_BOUNDS = {
    "caqr_max_residual_gap": 1e-12,
    "tsqr_max_residual_gap": 1e-12,
    "caqr_lookahead_residual_gap": 1e-14,
    "caqr_plan_residual_gap": 0.0,
    # CholeskyQR2 acceptance: <1e-14 orthogonality on the bench grid, or
    # the fast path has no business being dispatched.
    "caqr_orth_cholqr2": 1e-14,
    "caqr_orth_cholqr2_mixed": 1e-14,
    "caqr_orth_auto": 1e-14,
    # Sharded acceptance: the communicated run reproduces the in-process
    # reference bit for bit (0.0 — transport exactness, not a
    # tolerance), and agrees with the single-process tree to the usual
    # cross-path bound.
    "sharded_bit_gap": 0.0,
    "sharded_r_gap": 1e-12,
    # Streaming acceptance: the out-of-core fold agrees with one-shot
    # CAQR to the cross-path bound.
    "streaming_r_gap": 1e-12,
}
# Ratio metrics with an *absolute* floor on top of the relative check:
# the headline acceptance criterion (cholqr2 at least 2x the tree).  The
# floor is enforced only where the committed baseline clears it with
# margin (MIN_BOUND_MARGIN), so the large full-grid shapes (baseline
# 3.4-3.9x) are pinned hard while a quick-grid shape whose baseline
# merely grazes 2x — within run-to-run noise of the floor — stays gated
# by the relative check alone.
MIN_BOUNDS = {
    "caqr_cholqr2_vs_lookahead": 2.0,
    # The serving acceptance ratio: coalesced windows vs one-request-at-
    # a-time dispatch.  The committed baselines demonstrate well above
    # this; the floor is set where only a real regression (coalescing
    # silently degrading to the per-request rung would read ~1.0) can
    # cross it, because shared CI runners swing both sides of the ratio.
    "serving_coalesce_speedup": 3.0,
    # The sharded acceptance floor: four modeled devices must at least
    # halve the 2M x 1000 target's runtime.  The committed baseline sits
    # near the ideal 4x, so the floor only trips on a real model change
    # (e.g. reduction or interconnect cost landing on the critical path).
    "sharded_strong_speedup_p4": 2.0,
}
MIN_BOUND_MARGIN = 1.25
# Metrics with an absolute ceiling (noise-tolerant): ratio metrics like
# the auto guard's precheck tax, and the serving latency percentiles
# (milliseconds).  The latency ceilings are far above any healthy run —
# they trip when coalescing stops keeping up with the open-loop offered
# rate and queueing delay diverges, which is the failure mode worth
# gating; run-to-run percentile noise on a loaded host is not.
MAX_BOUNDS = {
    "caqr_auto_guard_overhead": 1.5,
    "serving_p50_ms": 25.0,
    "serving_p95_ms": 50.0,
    "serving_p99_ms": 75.0,
    # The soak memory contract.  The tracked working set of the
    # reference configuration (4096-row chunks, 64 columns) is ~6.1 MB
    # and independent of stream length, so the absolute ceiling sits
    # between the baseline and 2x it — the self-test's injected 2x
    # memory blow-up must always trip.  The bounded ratio (full-length
    # tracked peak over the half-length probe) is exactly 1.0 for a
    # healthy engine; 1.05 tolerates only schedule-edge effects, never
    # per-chunk accumulation.
    "streaming_peak_tracked_mb": 10.0,
    "streaming_bounded_ratio": 1.05,
}
EXACT_KEYS = (
    "launches",
    "launch_stream_sha256_16",
    # The sharded reduction schedule and its recorded traffic are pure
    # functions of (m, n, shards, fanin): any drift is a silent
    # behavioural change, never noise.
    "sharded_schedule_fingerprint",
    "sharded_messages",
    "sharded_words",
    "sharded_critical_path_messages",
)
ACCURACY_FACTOR = 10.0  # ferr/orth headroom vs baseline


def _is_time(key: str) -> bool:
    return "seconds" in key


def _is_speedup(key: str) -> bool:
    return "speedup" in key or key.endswith("_vs_lookahead")


def _is_qps(key: str) -> bool:
    # Request throughput (qps) and row throughput (rows per second) are
    # gated identically: floors, never ceilings.
    return "qps" in key or "per_sec" in key


def _is_latency(key: str) -> bool:
    return key.endswith("_ms")


def _is_memory(key: str) -> bool:
    return key.endswith("_mb")


def _is_accuracy(key: str) -> bool:
    return "ferr" in key or "orth" in key


def compare_row(measured: dict, baseline: dict, time_tol: float) -> list[dict]:
    """Per-metric deltas for one shape; each row carries ``ok``."""
    deltas = []
    for key, base in baseline.items():
        if key not in measured:
            deltas.append(
                {"metric": key, "baseline": base, "measured": None, "ok": False,
                 "why": "metric missing from fresh run"}
            )
            continue
        val = measured[key]
        row = {"metric": key, "baseline": base, "measured": val, "ok": True, "why": ""}
        if key in EXACT_KEYS:
            if val != base:
                row["ok"] = False
                row["why"] = "exact-match metric drifted"
        elif key in GAP_BOUNDS:
            bound = GAP_BOUNDS[key]
            if val > bound:
                row["ok"] = False
                row["why"] = f"gap above fixed bound {bound:g}"
        elif _is_time(key):
            row["ratio"] = val / base if base else float("inf")
            if val > base * (1.0 + time_tol):
                row["ok"] = False
                row["why"] = f"slower than baseline by >{time_tol:.0%}"
        elif key in MAX_BOUNDS:
            row["ratio"] = val / base if base else float("inf")
            if val > MAX_BOUNDS[key]:
                row["ok"] = False
                row["why"] = f"ratio above fixed ceiling {MAX_BOUNDS[key]:g}"
        elif _is_speedup(key):
            row["ratio"] = val / base if base else float("inf")
            if val < base / (1.0 + time_tol):
                row["ok"] = False
                row["why"] = f"speedup shrank by >{time_tol:.0%}"
            elif (key in MIN_BOUNDS
                  and base >= MIN_BOUNDS[key] * MIN_BOUND_MARGIN
                  and val < MIN_BOUNDS[key]):
                row["ok"] = False
                row["why"] = f"ratio below fixed floor {MIN_BOUNDS[key]:g}"
        elif _is_qps(key):
            # Throughput floors mirror the time ceilings: faster is never
            # a failure, a fall past the tolerance is.
            row["ratio"] = val / base if base else float("inf")
            if val < base / (1.0 + time_tol):
                row["ok"] = False
                row["why"] = f"throughput fell by >{time_tol:.0%}"
        elif _is_latency(key):
            row["ratio"] = val / base if base else float("inf")
            if val > base * (1.0 + time_tol):
                row["ok"] = False
                row["why"] = f"latency above baseline by >{time_tol:.0%}"
        elif _is_memory(key):
            # Peak-memory ceilings read like the time ceilings: lower is
            # never a failure, blowing past the tolerance is.
            row["ratio"] = val / base if base else float("inf")
            if val > base * (1.0 + time_tol):
                row["ok"] = False
                row["why"] = f"peak memory above baseline by >{time_tol:.0%}"
        elif _is_accuracy(key):
            if val > max(base * ACCURACY_FACTOR, 1e-15):
                row["ok"] = False
                row["why"] = f"accuracy degraded >{ACCURACY_FACTOR:g}x"
        elif "gflops" in key or key == "qr_gflop":
            pass  # derived from seconds / shape; the primaries are gated
        else:  # shape keys (m, n, block_rows, panel_width) must match
            if val != base:
                row["ok"] = False
                row["why"] = "shape key mismatch"
        deltas.append(row)
    return deltas


def format_deltas(shape: str, deltas: list[dict]) -> str:
    lines = [f"{shape}:"]
    lines.append(f"  {'metric':<32} {'baseline':>12} {'measured':>12} {'ratio':>7}  status")
    for d in deltas:
        base, val = d["baseline"], d["measured"]

        def _fmt(x):
            if isinstance(x, float):
                return f"{x:.4g}"
            return str(x)

        ratio = f"{d['ratio']:.2f}x" if "ratio" in d else ""
        status = "ok" if d["ok"] else f"FAIL ({d['why']})"
        lines.append(
            f"  {d['metric']:<32} {_fmt(base):>12} {_fmt(val):>12} {ratio:>7}  {status}"
        )
    return "\n".join(lines)


def run_gate(
    baseline_rows: list[dict],
    time_tol: float,
    reps: int,
    inject_slowdown: float | None = None,
    measured_rows: list[dict] | None = None,
) -> tuple[bool, list[dict], list[dict]]:
    """Measure (or reuse) every baseline shape and diff.

    Returns ``(ok, measured_rows, all_deltas)``; ``inject_slowdown``
    multiplies every fresh ``seconds_*`` metric (and divides the speedup
    ratios that would follow) to prove the gate trips.
    """
    if measured_rows is None:
        measured_rows = [
            bench_shape(b["m"], b["n"], b["block_rows"], b["panel_width"], reps)
            for b in baseline_rows
        ]
    rows = measured_rows
    if inject_slowdown:
        rows = [
            {
                k: (v * inject_slowdown if _is_time(k) else v)
                for k, v in r.items()
            }
            for r in rows
        ]
    ok = True
    all_deltas = []
    for base, meas in zip(baseline_rows, rows):
        deltas = compare_row(meas, base, time_tol)
        all_deltas.append({"shape": f"{base['m']}x{base['n']}", "deltas": deltas})
        print(format_deltas(f"{base['m']}x{base['n']}", deltas))
        ok &= all(d["ok"] for d in deltas)
    return ok, measured_rows, all_deltas


def _inject_serving(rows: list[dict], factor: float) -> list[dict]:
    """A synthetic uniform slowdown of serving rows (gate self-check).

    Latencies scale up; throughputs and the coalesce ratio scale down —
    the way a real regression of the coalesced path would read.
    """
    out = []
    for r in rows:
        row = {}
        for k, v in r.items():
            if _is_latency(k):
                row[k] = v * factor
            elif _is_qps(k) or _is_speedup(k):
                row[k] = v / factor
            else:
                row[k] = v
        out.append(row)
    return out


def run_serving_gate(
    baseline_rows: list[dict],
    time_tol: float,
    inject_slowdown: float | None = None,
    measured_rows: list[dict] | None = None,
) -> tuple[bool, list[dict], list[dict]]:
    """Re-measure every baseline serving row (same load parameters) and diff."""
    import bench_serving  # deferred: the serving stack only loads when gated

    if measured_rows is None:
        measured_rows = [
            bench_serving.bench_serving(
                m=b["m"], n=b["n"], requests=b["requests"],
                rate=b["open_loop_rate"],
            )
            for b in baseline_rows
        ]
    rows = measured_rows
    if inject_slowdown:
        rows = _inject_serving(rows, inject_slowdown)
    ok = True
    all_deltas = []
    for base, meas in zip(baseline_rows, rows):
        deltas = compare_row(meas, base, time_tol)
        shape = f"serving {base['m']}x{base['n']}"
        all_deltas.append({"shape": shape, "deltas": deltas})
        print(format_deltas(shape, deltas))
        ok &= all(d["ok"] for d in deltas)
    return ok, measured_rows, all_deltas


def _inject_sharded(rows: list[dict], factor: float) -> list[dict]:
    """A synthetic slowdown of sharded rows (gate self-check): times
    scale up, the scaling speedups scale down — the way a reduction or
    interconnect regression would read."""
    out = []
    for r in rows:
        row = {}
        for k, v in r.items():
            if _is_time(k):
                row[k] = v * factor
            elif _is_speedup(k):
                row[k] = v / factor
            else:
                row[k] = v
        out.append(row)
    return out


def run_sharded_gate(
    baseline_rows: list[dict],
    time_tol: float,
    inject_slowdown: float | None = None,
    measured_rows: list[dict] | None = None,
) -> tuple[bool, list[dict], list[dict]]:
    """Re-run every baseline sharded row (same shape/shards) and diff."""
    import bench_distributed  # deferred: loads only when gated

    if measured_rows is None:
        measured_rows = [
            bench_distributed.bench_row(m=b["m"], n=b["n"], shards=b["shards"])
            for b in baseline_rows
        ]
    rows = measured_rows
    if inject_slowdown:
        rows = _inject_sharded(rows, inject_slowdown)
    ok = True
    all_deltas = []
    for base, meas in zip(baseline_rows, rows):
        deltas = compare_row(meas, base, time_tol)
        shape = f"sharded {base['m']}x{base['n']} P={base['shards']}"
        all_deltas.append({"shape": shape, "deltas": deltas})
        print(format_deltas(shape, deltas))
        ok &= all(d["ok"] for d in deltas)
    return ok, measured_rows, all_deltas


def _inject_streaming(rows: list[dict], factor: float) -> list[dict]:
    """A synthetic streaming regression (gate self-check): memory peaks
    and the bounded ratio blow up by ``factor``, the soak slows down and
    throughput falls by the same factor — the way a per-chunk leak (or a
    silently unbounded carry) would read."""
    out = []
    for r in rows:
        row = {}
        for k, v in r.items():
            if _is_memory(k) or k == "streaming_bounded_ratio" or _is_time(k):
                row[k] = v * factor
            elif _is_qps(k):
                row[k] = v / factor
            else:
                row[k] = v
        out.append(row)
    return out


def run_streaming_gate(
    baseline_rows: list[dict],
    time_tol: float,
    inject_slowdown: float | None = None,
    measured_rows: list[dict] | None = None,
) -> tuple[bool, list[dict], list[dict]]:
    """Re-run every baseline soak row (same rows/chunking) and diff."""
    import bench_streaming  # deferred: loads only when gated

    if measured_rows is None:
        measured_rows = [
            bench_streaming.bench_streaming(
                rows=b["rows"], n=b["n"], chunk_rows=b["chunk_rows"]
            )
            for b in baseline_rows
        ]
    rows = measured_rows
    if inject_slowdown:
        rows = _inject_streaming(rows, inject_slowdown)
    ok = True
    all_deltas = []
    for base, meas in zip(baseline_rows, rows):
        deltas = compare_row(meas, base, time_tol)
        shape = f"streaming {base['rows']}x{base['n']} C={base['chunk_rows']}"
        all_deltas.append({"shape": shape, "deltas": deltas})
        print(format_deltas(shape, deltas))
        ok &= all(d["ok"] for d in deltas)
    return ok, measured_rows, all_deltas


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON (default: BENCH_caqr.json, or the committed "
        "quick baseline with --quick)",
    )
    ap.add_argument(
        "--quick",
        action="store_true",
        help=f"gate against the committed quick baseline ({QUICK_BASELINE.name})",
    )
    ap.add_argument(
        "--serving",
        action="store_true",
        help="also gate the serving rows (coalesced/per-request QPS, "
        "latency percentiles) from benchmarks/bench_serving.py",
    )
    ap.add_argument(
        "--serving-only",
        action="store_true",
        help="gate only the serving rows (implies --serving; skips the "
        "CAQR shape grid)",
    )
    ap.add_argument(
        "--check-sharded",
        action="store_true",
        help="also gate the sharded rows (bit-identity, R gap, comm "
        "counts, modeled strong/weak scaling) from "
        "benchmarks/bench_distributed.py",
    )
    ap.add_argument(
        "--sharded-only",
        action="store_true",
        help="gate only the sharded rows (implies --check-sharded; "
        "skips the CAQR shape grid)",
    )
    ap.add_argument(
        "--check-streaming",
        action="store_true",
        help="also gate the streaming soak rows (rows/sec floor, peak-"
        "memory ceilings, bounded-memory ratio, streamed-vs-oneshot R "
        "gap) from benchmarks/bench_streaming.py",
    )
    ap.add_argument(
        "--streaming-only",
        action="store_true",
        help="gate only the streaming soak rows (implies "
        "--check-streaming; skips the CAQR shape grid)",
    )
    ap.add_argument("--reps", type=int, default=3, help="timed repetitions (best-of)")
    ap.add_argument(
        "--time-tol",
        type=float,
        default=0.25,
        help="relative tolerance for seconds/speedup metrics (default 0.25)",
    )
    ap.add_argument(
        "--inject-slowdown",
        type=float,
        default=None,
        help="multiply measured times by this factor (gate self-check: "
        "2.0 must make the gate fail)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="measure once, then verify the gate passes on its own numbers "
        "and fails on a synthetic 2x slowdown of them",
    )
    ap.add_argument("--out", type=Path, default=None, help="write the delta table JSON here")
    args = ap.parse_args(argv)

    do_core = not (args.serving_only or args.sharded_only or args.streaming_only)
    do_serving = args.serving or args.serving_only
    do_sharded = args.check_sharded or args.sharded_only
    do_streaming = args.check_streaming or args.streaming_only

    baseline_rows: list[dict] = []
    baseline_path = args.baseline or (QUICK_BASELINE if args.quick else FULL_BASELINE)
    if do_core:
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found — run bench_realtime.py first")
            return 2
        baseline_rows = json.loads(baseline_path.read_text())["shapes"]
        print(f"gating against {baseline_path} ({len(baseline_rows)} shapes, "
              f"time tolerance ±{args.time_tol:.0%})\n")

    serving_rows: list[dict] = []
    if do_serving:
        serving_path = args.baseline or (
            SERVING_QUICK_BASELINE if args.quick else FULL_BASELINE
        )
        if not serving_path.exists():
            print(f"serving baseline {serving_path} not found — run "
                  f"bench_serving.py first")
            return 2
        serving_rows = json.loads(serving_path.read_text()).get("serving", [])
        if not serving_rows:
            print(f"serving baseline {serving_path} has no 'serving' rows — "
                  f"run bench_serving.py first")
            return 2
        print(f"gating serving against {serving_path} ({len(serving_rows)} "
              f"row(s), time tolerance ±{args.time_tol:.0%})\n")

    sharded_rows: list[dict] = []
    if do_sharded:
        sharded_path = args.baseline or (
            SHARDED_QUICK_BASELINE if args.quick else SHARDED_FULL_BASELINE
        )
        if not sharded_path.exists():
            print(f"sharded baseline {sharded_path} not found — run "
                  f"bench_distributed.py first")
            return 2
        sharded_rows = json.loads(sharded_path.read_text()).get("sharded", [])
        if not sharded_rows:
            print(f"sharded baseline {sharded_path} has no 'sharded' rows — "
                  f"run bench_distributed.py first")
            return 2
        print(f"gating sharded against {sharded_path} ({len(sharded_rows)} "
              f"row(s), time tolerance ±{args.time_tol:.0%})\n")

    streaming_rows: list[dict] = []
    if do_streaming:
        streaming_path = args.baseline or (
            STREAMING_QUICK_BASELINE if args.quick else STREAMING_FULL_BASELINE
        )
        if not streaming_path.exists():
            print(f"streaming baseline {streaming_path} not found — run "
                  f"bench_streaming.py first")
            return 2
        streaming_rows = json.loads(streaming_path.read_text()).get("streaming", [])
        if not streaming_rows:
            print(f"streaming baseline {streaming_path} has no 'streaming' "
                  f"rows — run bench_streaming.py first")
            return 2
        print(f"gating streaming against {streaming_path} "
              f"({len(streaming_rows)} row(s), time tolerance "
              f"±{args.time_tol:.0%})\n")

    if args.self_test:
        # One real measurement per gate; the injected comparisons reuse
        # it, so the self-test costs one bench run each, not three.
        ok = True
        if do_core:
            ok_pass, measured, _ = run_gate(baseline_rows, args.time_tol, args.reps)
            print("\nself-test: injecting 2.0x slowdown (every metric below "
                  "must FAIL on seconds_*)\n")
            ok_fail, _, _ = run_gate(
                baseline_rows, args.time_tol, args.reps,
                inject_slowdown=2.0, measured_rows=measured,
            )
            if not ok_pass:
                print("\nself-test: FAILED — clean run did not pass the gate")
                ok = False
            if ok_fail:
                print("\nself-test: FAILED — injected 2x slowdown was not caught")
                ok = False
        if do_serving:
            s_pass, s_measured, _ = run_serving_gate(serving_rows, args.time_tol)
            print("\nself-test: injecting 2.0x serving slowdown (the QPS "
                  "floors below must FAIL)\n")
            s_fail, _, _ = run_serving_gate(
                serving_rows, args.time_tol,
                inject_slowdown=2.0, measured_rows=s_measured,
            )
            if not s_pass:
                print("\nself-test: FAILED — clean serving run did not pass")
                ok = False
            if s_fail:
                print("\nself-test: FAILED — injected 2x serving slowdown "
                      "was not caught")
                ok = False
        if do_sharded:
            d_pass, d_measured, _ = run_sharded_gate(sharded_rows, args.time_tol)
            print("\nself-test: injecting 2.0x sharded slowdown (the "
                  "scaling-speedup floors below must FAIL)\n")
            d_fail, _, _ = run_sharded_gate(
                sharded_rows, args.time_tol,
                inject_slowdown=2.0, measured_rows=d_measured,
            )
            if not d_pass:
                print("\nself-test: FAILED — clean sharded run did not pass")
                ok = False
            if d_fail:
                print("\nself-test: FAILED — injected 2x sharded slowdown "
                      "was not caught")
                ok = False
        if do_streaming:
            t_pass, t_measured, _ = run_streaming_gate(
                streaming_rows, args.time_tol
            )
            print("\nself-test: injecting 2.0x streaming memory blow-up "
                  "(the peak-memory ceilings and the bounded ratio below "
                  "must FAIL)\n")
            t_fail, _, _ = run_streaming_gate(
                streaming_rows, args.time_tol,
                inject_slowdown=2.0, measured_rows=t_measured,
            )
            if not t_pass:
                print("\nself-test: FAILED — clean streaming run did not pass")
                ok = False
            if t_fail:
                print("\nself-test: FAILED — injected 2x streaming memory "
                      "blow-up was not caught")
                ok = False
        if ok:
            print("\nself-test: ok (clean run passes, 2x slowdown trips the gate)")
        return 0 if ok else 1

    ok = True
    all_deltas: list[dict] = []
    if do_core:
        core_ok, _, core_deltas = run_gate(
            baseline_rows, args.time_tol, args.reps,
            inject_slowdown=args.inject_slowdown,
        )
        ok &= core_ok
        all_deltas.extend(core_deltas)
    if do_serving:
        serving_ok, _, serving_deltas = run_serving_gate(
            serving_rows, args.time_tol, inject_slowdown=args.inject_slowdown
        )
        ok &= serving_ok
        all_deltas.extend(serving_deltas)
    if do_sharded:
        sharded_ok, _, sharded_deltas = run_sharded_gate(
            sharded_rows, args.time_tol, inject_slowdown=args.inject_slowdown
        )
        ok &= sharded_ok
        all_deltas.extend(sharded_deltas)
    if do_streaming:
        streaming_ok, _, streaming_deltas = run_streaming_gate(
            streaming_rows, args.time_tol, inject_slowdown=args.inject_slowdown
        )
        ok &= streaming_ok
        all_deltas.extend(streaming_deltas)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"baseline": str(baseline_path), "time_tol": args.time_tol,
             "ok": ok, "shapes": all_deltas}, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    print(f"\nperf gate: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
