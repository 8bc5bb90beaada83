"""Benchmark self-test: a delay injected into one layer moves only that layer.

    python3 perfbench/selftest.py

Runs ``run.py`` with and without ``--inject tree.factor=DELAY_S``, which
sleeps inside the benchmark's own span around the Householder tree
factor.  ``run.py`` installs that span for every workload, so the delay
reaches any workload that calls the tree: qr_paper's ``auto`` plan does
on rejected inputs, and serve_small and stream_soak must not.  The two
kinds of run alternate ``PAIRS`` times per workload, for
``run_seconds`` from ``BENCHMARK.json``, and medians are compared, so a
slow stretch of the host lands on both sides.  It passes when

* ``tree.factor_s`` (traced run), ``qr_fallback_s`` and ``qr_tail_s``
  (qr_paper) each grow by at least half the delay, and
* ``qr_fast_s`` and every ``serve_*`` and ``stream_*`` metric stays
  within the bound ``BENCHMARK.json`` gives the end-to-end metric it
  feeds.

Exits 0 and prints ``self-test: ok`` on success.  Takes about fifteen
minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
DELAY_S = 1.0
PAIRS = 3
INJECT = f"tree.factor={DELAY_S}"

# Named metric -> the BENCHMARK.json end-to-end metric whose bound applies.
BOUND_OF = {
    "qr_fast_s": "op_p50_ms",
    "serve_p50_ms": "op_p50_ms",
    "serve_tail_ms": "op_tail_ms",
    "serve_qps": "work_per_s",
    "stream_rows_per_s": "work_per_s",
}


def run(workload: str, seconds: int, trace: int, inject: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", INJECT]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"selftest: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"selftest: {workload} reported incorrect results")
    report = json.loads(next(ln for ln in lines if ln.startswith("report: "))[len("report: "):])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({k: v["value"] for k, v in report.get("named", {}).items()})
    return values


def paired(workload: str, seconds: int, trace: int, pairs: int) -> tuple[dict, dict]:
    """Alternate clean and injected runs; per-metric medians of each side."""
    base, hit = [], []
    for _ in range(pairs):
        base.append(run(workload, seconds, trace, False))
        hit.append(run(workload, seconds, trace, True))

    def med(rows):
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

    return med(base), med(hit)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    checks = []

    def moved(name, base, hit):
        grew = hit[name] - base[name]
        checks.append((f"{name} grew {grew:.3f} s (delay {DELAY_S} s)", grew >= 0.5 * DELAY_S))

    def held(name, base, hit):
        e2e = BOUND_OF[name]
        worse = (hit[name] - base[name]) / base[name]
        if better[e2e] == "higher":
            worse = -worse
        checks.append((f"{name} {base[name]:.5g} -> {hit[name]:.5g} "
                       f"(worse by {worse:+.3f}, bound {bounds[e2e]})", worse <= bounds[e2e]))

    base, hit = paired("qr_paper", seconds, 1, 1)  # the ledger: one pair
    moved("tree.factor_s", base, hit)
    base, hit = paired("qr_paper", seconds, 0, PAIRS)
    moved("qr_fallback_s", base, hit)
    moved("qr_tail_s", base, hit)
    held("qr_fast_s", base, hit)
    for workload, names in (("serve_small", ("serve_p50_ms", "serve_tail_ms", "serve_qps")),
                            ("stream_soak", ("stream_rows_per_s",))):
        base, hit = paired(workload, seconds, 0, PAIRS)
        for name in names:
            held(name, base, hit)

    for text, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {text}")
    if all(ok for _, ok in checks):
        print("self-test: ok")
        return 0
    print("self-test: FAILED")
    return 1


if __name__ == "__main__":
    sys.exit(main())
