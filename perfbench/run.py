"""The repository benchmark: one command, four workloads, layer-by-layer ledger.

    python3 perfbench/run.py --workload qr_paper --seed 1 --seconds 10 --trace 0

Run from the repository root (the library is imported from ``src/``).

``--trace 0`` measures one workload and prints the end-to-end metrics
named in ``BENCHMARK.json``.  Its only benchmark span is the one around
the Householder tree factor (``graph.executor.run_lookahead_schedule``),
installed for every workload so that a delay the self-test injects there
reaches whichever workload calls the tree; qr_paper's ``auto`` calls
reach it on rejected inputs, and it costs microseconds against a ~1 s
fallback.  ``peak_rss_mb`` is the resident high-water mark reached
during the measurement above the resident set held once the inputs are
made and the workload is set up, so the inputs do not count.
``--trace 1`` prints the per-layer ledger: it measures the host
roofline, then rebuilds every workload's operation from calls into the
layers' public functions, with a benchmark-side span around each call,
checks the rebuilt result bit-for-bit against the untraced call, and
reports each workload's span coverage and tracing overhead.  The ledger
is the same for every ``--workload``, so each traced run carries every
per-layer metric.

Every correctness check runs outside the timed intervals.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``); the lines before it are a
human-readable report and one ``report:`` JSON line with sample counts,
tail percentiles, host facts and check details.

``serve_small`` and ``stream_soak`` run here but are not
``BENCHMARK.json`` workloads: on a shared 2-core host their times move
with the host more than any usable regression bound allows (serve_small
run medians of p50 from 6 to 12 ms and of p98 from 11 to 47 ms;
stream_soak's cache-resident chunks gave a quartile spread of 0.48 of
the median over ten runs, against 0.15 for qr_paper in the same
window).  The ledger prints their numbers ungated as ``serve.p50_ms``,
``serve.tail_ms``, ``serve.qps`` and ``stream.rows_per_s``.

``--inject LAYER=SECONDS`` (self-test only) sleeps inside the
benchmark's own span around that layer call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("qr_paper", "rpca_video", "serve_small", "stream_soak")
# Cold set-ups per run; rpca_video's is a ~5 s IALM iteration, so fewer.
SETUP_REPEATS = {"qr_paper": 5, "rpca_video": 3, "serve_small": 5, "stream_soak": 5}
SETUP_TIMEOUT_S = 150


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", action="append", default=[], metavar="LAYER=SECONDS",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    args.delays = {}
    for item in args.inject:
        layer, _, secs = item.partition("=")
        args.delays[layer] = float(secs)
    return args


def _setup_samples(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS[workload]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"run.py: cold set-up of {workload} failed")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_untraced(args, harness) -> tuple[dict, dict]:
    import repro.graph.executor as graph_executor

    mod = importlib.import_module(args.workload)
    setups = _setup_samples(args.workload, args.seed)
    inputs = mod.make_inputs(args.seed)
    state = mod.setup(inputs)
    spans = harness.Spans(args.delays)
    restore = harness.wrap_layer(graph_executor, "run_lookahead_schedule", spans, "tree.factor")
    try:
        base_mb = harness.reset_peak_rss()
        res = mod.measure(state, inputs, args.seconds, spans)
        peak_mb = harness.peak_rss_mb() - base_mb
    finally:
        restore()
        mod.teardown(state)
    if "error" in res:
        raise SystemExit(f"run.py: {args.workload} failed: {res['error']}")
    metrics = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": peak_mb,
        **res["generic"],
    }
    fail_frac = res["failed"] / res["attempted"]
    named = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(setups)} cold starts"),
        "peak_rss_mb": (peak_mb, "MiB",
                        f"high-water mark above the {base_mb:.0f} MiB held after inputs and set-up"),
        "fail_frac": (fail_frac, "ratio", f"{res['failed']} of {res['attempted']} operations"),
        **res["named"],
    }
    print(f"end-to-end, {args.workload} (seed {args.seed}, {args.seconds:g} s):")
    for name, (value, unit, basis) in named.items():
        print(f"  {name:<16} {_fmt(value):>12} {unit:<6} {basis}")
    verdict = "correct" if res["failed"] == 0 else "INCORRECT"
    print(f"  verdict: {verdict} ({res['notes'].get('check', 'see report')})")
    report = {
        "named": {k: {"value": v, "unit": u, "basis": b} for k, (v, u, b) in named.items()},
        "samples": res["samples"],
        "tree_factor_spans": len(spans.durations("tree.factor")),
        "setup_samples_s": setups,
        "checks": res["notes"],
        "verdict": verdict,
    }
    return {"metrics": metrics, "attempted": res["attempted"], "failed": res["failed"]}, report


def run_traced(args, harness) -> tuple[dict, dict]:
    roof = harness.host_roofline()
    print(
        f"host roofline: GEMM {roof['gemm_gflops']:.1f} GFLOPS, stream "
        f"{roof['copy_gbps']:.1f} GB/s over {roof['copy_array_mib']:.0f} MiB "
        f"(LLC {roof['llc_mib']:.0f} MiB), np.linalg.qr 110592x100 {roof['lapack_qr_s']:.3f} s"
    )
    layers = {
        "host.gemm_gflops": roof["gemm_gflops"],
        "host.copy_gbps": roof["copy_gbps"],
        "host.lapack_qr_s": roof["lapack_qr_s"],
    }
    attempted = failed = 0
    notes = {"roofline": roof}
    for name in WORKLOADS:
        mod = importlib.import_module(name)
        inputs = mod.make_inputs(args.seed)
        spans = harness.Spans(args.delays)
        led = mod.ledger(inputs, roof, spans)
        del inputs
        layers.update(led["layers"])
        attempted += led["attempted"]
        failed += led["failed"]
        notes[name] = {"rebuilt_ops": led["attempted"], "mismatches": led["failed"],
                       **led["notes"], "spans": spans.summary()}
    layers["fail_frac"] = failed / attempted
    units = args.units["per_layer"]
    missing = set(units) - set(layers)
    if missing:
        raise SystemExit(f"run.py: ledger is missing {sorted(missing)}")
    print(f"per-layer ledger (seed {args.seed}):")
    for name, value in layers.items():
        print(f"  {name:<26} {_fmt(value):>12} {units[name]}")
    verdict = "correct" if failed == 0 else "INCORRECT (rebuilt != untraced)"
    print(f"  verdict: {verdict} ({attempted - failed} of {attempted} rebuilt operations match)")
    report = {"checks": notes, "verdict": verdict}
    return {"metrics": layers, "attempted": attempted, "failed": failed}, report


def main() -> int:
    args = _parse()
    if not (SRC / "repro" / "__init__.py").is_file():  # a checkout without the library
        sys.stderr.write(f"run.py: no library sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"run.py: imported repro from {repro.__file__}, not {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                  for kind in ("end_to_end", "per_layer")}
    host = harness.host_info()
    whys = {w: importlib.import_module(w).WHY for w in WORKLOADS}
    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload}: {whys[args.workload]}")
    out, report = (run_traced if args.trace else run_untraced)(args, harness)
    units = args.units["per_layer" if args.trace else "end_to_end"]
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "host": host, "why": whys,
                   "injected": args.delays})
    print("report: " + json.dumps(report, default=float))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
