"""Command-line interface: regenerate any table or figure from a shell.

Usage::

    python -m repro table1
    python -m repro figure9 --widths 64,512,4096
    python -m repro table2
    python -m repro strategies
    python -m repro figure7
    python -m repro figure8
    python -m repro ablations
    python -m repro sensitivity
    python -m repro dispatch --m 8192 --n 192
    python -m repro plan --m 110592 --n 100 --path lookahead
    python -m repro trace --shape 4096x128 --policy lookahead --out trace.json
    python -m repro verify --seed 0
    python -m repro serve-bench --shape 256x32 --requests 512
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime.policy import PATH_NAMES

    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Communication-Avoiding QR Decomposition for GPUs' (IPDPS 2011).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("strategies", help="Section IV-E strategy table (55/168/194/388)")
    sub.add_parser("figure7", help="block-size sweep + autotuned pick")
    sub.add_parser("figure8", help="speedup grid + crossover frontier")

    f9 = sub.add_parser("figure9", help="GFLOPS vs width at height 8192")
    f9.add_argument("--widths", type=str, default=None, help="comma-separated widths")

    t1 = sub.add_parser("table1", help="very tall-skinny GFLOPS (1k..1M x 192)")
    t1.add_argument("--heights", type=str, default=None, help="comma-separated heights")

    sub.add_parser("table2", help="Robust PCA iterations/second")
    sub.add_parser("ablations", help="tree/transpose/panel/hybrid/strategy ablations")
    sub.add_parser("sensitivity", help="bandwidth / PCIe-latency / launch-overhead sweeps")
    sub.add_parser("communication", help="DRAM words vs the communication lower bound")
    sub.add_parser("stability", help="orthogonality vs condition number, all algorithms")
    sub.add_parser("projection", help="headline results on projected future devices")

    ov = sub.add_parser("overlap", help="modeled multi-stream overlap vs the serial stream")
    ov.add_argument("--heights", type=str, default=None, help="comma-separated heights")
    ov.add_argument("--streams", type=int, default=4)

    sub.add_parser("distributed", help="distributed TSQR vs Householder message counts")

    d = sub.add_parser("dispatch", help="model-driven engine choice for one shape")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--n", type=int, required=True)

    pl = sub.add_parser("plan", help="build and describe a reusable QR plan")
    pl.add_argument("--m", type=int, required=True)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--dtype", type=str, default="float64")
    pl.add_argument(
        "--path", type=str, default="batched", choices=PATH_NAMES, help="execution path"
    )
    pl.add_argument(
        "--shards", type=int, default=None, help="sharded rank count (path=sharded)"
    )
    pl.add_argument(
        "--fanin", type=int, default=None, help="sharded reduction-tree arity"
    )
    pl.add_argument(
        "--interconnect",
        type=str,
        default=None,
        help="alpha-beta link model: pcie2 | cluster | ethernet | grid",
    )

    tr = sub.add_parser(
        "trace",
        help="run one traced factorization; write a Perfetto-loadable trace",
    )
    tr.add_argument(
        "--shape", type=str, default="4096x128", help="matrix shape as MxN"
    )
    tr.add_argument(
        "--policy", type=str, default="batched", choices=PATH_NAMES, help="execution path"
    )
    tr.add_argument("--seed", type=int, default=0, help="matrix RNG seed")
    tr.add_argument(
        "--out", type=str, default=None, help="Chrome trace_event JSON output path"
    )

    e = sub.add_parser("export", help="write CSVs of every table/figure")
    e.add_argument("--out", type=str, default="exports")

    v = sub.add_parser(
        "verify",
        help="differential fuzz: every CAQR path vs np.linalg.qr and each other",
    )
    v.add_argument("--seed", type=int, default=0, help="grid seed (default 0)")
    v.add_argument("--quick", action="store_true", help="core grid only (CI smoke)")
    v.add_argument(
        "--cases", type=int, default=60, help="random cases beyond the core grid"
    )
    v.add_argument(
        "--paths",
        type=str,
        default=None,
        help="comma-separated subset of paths (default: all)",
    )

    sb = sub.add_parser(
        "serve-bench",
        help="load-test the coalescing QR server vs per-request dispatch",
    )
    sb.add_argument(
        "--shape", type=str, default="256x32", help="request shape as MxN"
    )
    sb.add_argument("--dtype", type=str, default="float64")
    sb.add_argument("--requests", type=int, default=512)
    sb.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered arrival rate in req/s (open loop); default saturation",
    )
    sb.add_argument(
        "--mode",
        type=str,
        default="both",
        choices=("both", "coalesced", "per-request"),
        help="which surface to drive (default: both, and report the speedup)",
    )
    sb.add_argument("--tenants", type=int, default=4)
    sb.add_argument(
        "--max-batch", type=int, default=96, help="coalescing window size cap"
    )
    sb.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="coalescing window time cap (ms)",
    )
    return p


def _ints(csv: str | None) -> tuple[int, ...] | None:
    if csv is None:
        return None
    return tuple(int(x) for x in csv.split(",") if x)


def _policy(parser: argparse.ArgumentParser, **fields):
    """An ExecutionPolicy from parsed flags; a policy error is a usage error."""
    from repro.runtime import ExecutionPolicy

    try:
        return ExecutionPolicy(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_trace(args, parser) -> int:
    """One traced factorization: capture, export, modeled-vs-measured."""
    import numpy as np

    from repro import obs
    from repro.kernels.config import REFERENCE_CONFIG
    from repro.runtime import plan_qr

    try:
        m_s, n_s = args.shape.lower().split("x")
        m, n = int(m_s), int(n_s)
    except ValueError:
        print(f"trace: --shape must look like 4096x128, got {args.shape!r}")
        return 2
    # The overlay compares with the modeled timeline, so the run takes the
    # modeled config's panel width (unset, a tall look-ahead run would be
    # one panel with no update phase to compare).
    policy = _policy(parser, path=args.policy, panel_width=REFERENCE_CONFIG.panel_width)
    A = np.random.default_rng(args.seed).standard_normal((m, n))
    with obs.capture(meta={"shape": f"{m}x{n}", "path": policy.path}) as session:
        plan = plan_qr(m, n, policy=policy)
        plan.factor(A)
    trace = session.trace
    root = max(
        (s for s in trace.spans if s.name == "plan.factor"), key=lambda s: s.dur_ns
    )
    coverage = trace.coverage(root)
    out = [obs.render_spans(trace)]
    out.append(
        f"span coverage of plan.factor: {coverage:.1%} "
        f"({len(trace.spans)} spans, {len(trace.thread_names)} thread"
        f"{'s' if len(trace.thread_names) != 1 else ''})"
    )
    out.append("")
    out.append(
        obs.format_overlay(
            obs.modeled_vs_measured(trace, plan.simulate()),
            title=f"modeled vs measured ({m}x{n}, path={policy.path})",
        )
    )
    if args.out:
        path = obs.write_chrome_trace(trace, args.out)
        out.append(f"\nwrote {path} (open in https://ui.perfetto.dev)")
    print("\n".join(out))
    if coverage < 0.95:
        print(f"trace: span coverage {coverage:.1%} below the 95% floor")
        return 1
    return 0


def _cmd_serve_bench(args) -> int:
    """Drive the load generator at the serving front end from the shell."""
    import numpy as np

    from repro.dispatch import QRDispatcher
    from repro.serving import QRServer, format_report, run_load

    try:
        m_s, n_s = args.shape.lower().split("x")
        m, n = int(m_s), int(n_s)
    except ValueError:
        print(f"serve-bench: --shape must look like 256x32, got {args.shape!r}")
        return 2
    dtype = np.dtype(args.dtype)
    common = dict(
        m=m, n=n, dtype=dtype, requests=args.requests,
        rate=args.rate, tenants=args.tenants,
    )

    reports = {}
    if args.mode in ("both", "per-request"):
        reports["per-request"] = run_load(
            QRDispatcher(), mode="per-request", **common
        )
    if args.mode in ("both", "coalesced"):
        with QRServer(
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms
        ) as server:
            # One short pass outside the measured window: first-touch
            # plan/cache builds land here, not in the report.
            run_load(
                server, mode="coalesced", m=m, n=n, dtype=dtype,
                requests=max(8, args.requests // 4),
            )
            reports["coalesced"] = run_load(server, mode="coalesced", **common)

    for rep in reports.values():
        print(format_report(rep))
    if len(reports) == 2:
        speedup = reports["coalesced"].qps / reports["per-request"].qps
        print(f"coalesce speedup: {speedup:.2f}x")
    errors = sum(rep.errors for rep in reports.values())
    if errors:
        print(f"serve-bench: {errors} request(s) errored")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        # Handled first: the correctness gate must not depend on the
        # experiments stack, and it is the only command with a failure
        # exit code (1 on any divergence).
        from repro.verify.fuzz import run_grid

        report = run_grid(
            seed=args.seed,
            quick=args.quick,
            n_random=args.cases,
            paths=[p for p in args.paths.split(",") if p] if args.paths else None,
            progress=print,
        )
        print(report.format())
        return 0 if report.ok else 1
    if args.command == "plan":
        import numpy as np

        from repro.runtime import plan_qr

        policy = _policy(
            parser,
            path=args.path,
            shards=args.shards,
            fanin=args.fanin,
            interconnect=args.interconnect,
        )
        plan = plan_qr(args.m, args.n, dtype=np.dtype(args.dtype), policy=policy)
        print(plan.describe())
        return 0
    if args.command == "trace":
        return _cmd_trace(args, parser)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    # Imports deferred so `--help` stays instant.
    from repro.experiments import (
        ablations,
        ascii_chart,
        communication,
        distributed_study,
        figure7,
        projection,
        figure8,
        figure9,
        overlap_study,
        sensitivity,
        stability,
        strategies_table,
        table1,
        table2,
    )

    out = []
    if args.command == "strategies":
        out.append(strategies_table.format_results(strategies_table.run()))
    elif args.command == "figure7":
        out.append(figure7.format_results(figure7.run(), top=15))
    elif args.command == "figure8":
        out.append(figure8.format_results(figure8.run()))
    elif args.command == "figure9":
        widths = _ints(args.widths)
        result = figure9.run(widths=widths) if widths else figure9.run()
        out.append(figure9.format_results(result))
        out.append(
            ascii_chart(
                [r.width for r in result.rows],
                {
                    "CAQR": [r.caqr for r in result.rows],
                    "MAGMA": [r.magma for r in result.rows],
                    "CULA": [r.cula for r in result.rows],
                    "MKL": [r.mkl for r in result.rows],
                },
                title="Figure 9 (GFLOPS vs width, log-x)",
                logx=True,
            )
        )
    elif args.command == "table1":
        heights = _ints(args.heights)
        rows = table1.run(heights=heights) if heights else table1.run()
        out.append(table1.format_results(rows))
    elif args.command == "table2":
        out.append(table2.format_results(table2.run()))
    elif args.command == "ablations":
        out.append(ablations.format_rows(ablations.tree_shape_ablation(), "Tree arity (500k x 192)"))
        out.append(ablations.format_rows(ablations.transpose_ablation(), "Transpose preprocessing (500k x 192)"))
        out.append(ablations.format_rows(ablations.panel_width_ablation(), "Panel width (500k x 192)"))
        out.append(ablations.format_rows(ablations.strategy_ablation(), "Strategy inside CAQR (500k x 192)"))
        out.append(ablations.format_rows(ablations.hybrid_panel_ablation(), "GPU-only vs hybrid panel"))
    elif args.command == "sensitivity":
        out.append(sensitivity.format_sweep(sensitivity.dram_bandwidth_sweep(), "DRAM bandwidth scale (500k x 192)"))
        out.append(sensitivity.format_sweep(sensitivity.pcie_latency_sweep(), "PCIe latency (100k x 192)"))
        out.append(sensitivity.format_sweep(sensitivity.launch_overhead_sweep(), "Kernel launch overhead (1k x 192 vs 1M x 192)"))
    elif args.command == "communication":
        out.append(communication.format_results(communication.run()))
    elif args.command == "stability":
        out.append(stability.format_results(stability.run()))
    elif args.command == "overlap":
        heights = _ints(args.heights)
        kwargs = {"streams": args.streams}
        if heights:
            kwargs["heights"] = heights
        out.append(overlap_study.format_results(overlap_study.run(**kwargs)))
    elif args.command == "projection":
        out.append(projection.format_results(projection.run()))
    elif args.command == "distributed":
        out.append(distributed_study.format_results(distributed_study.run()))
    elif args.command == "dispatch":
        from repro.dispatch import QRDispatcher

        preds = QRDispatcher().predict(args.m, args.n)
        lines = [f"engine predictions for {args.m} x {args.n}:"]
        for p_ in preds:
            lines.append(f"  {p_.engine:8s} {p_.seconds * 1e3:10.2f} ms  {p_.gflops:8.1f} GFLOPS")
        lines.append(f"choice: {preds[0].engine}")
        out.append("\n".join(lines))
    elif args.command == "export":
        from repro.experiments.export import export_all

        paths = export_all(args.out)
        out.append("wrote:\n" + "\n".join(f"  {p}" for p in paths))
    print("\n\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
