#!/usr/bin/env python
"""CI launch-fingerprint drift gate for every execution path.

The fingerprint families, all pure shape arithmetic, each keyed by
what it pins:

* **CAQR launch stream** (``caqr_launches``) —
  :func:`repro.verify.invariants.launch_fingerprint`, the SHA-256 of the
  modeled C2050 kernel-launch sequence that ``plan.simulate()`` times
  for the look-ahead paths.
* **Look-ahead task DAG** (``batched`` / ``structured`` /
  ``lookahead``, every path of the engine table's look-ahead engine) —
  a SHA-256 over
  :func:`repro.graph.executor.build_lookahead_schedule`'s panel
  partition and dependency-wired task list.  The three name one
  driver, so their DAGs are equal; the gate pins that identity.
* **CholeskyQR2 launch stream** (``cholqr2`` / ``cholqr2_mixed`` /
  ``auto``) — a SHA-256 over
  :func:`repro.caqr_gpu.enumerate_cholqr2_launches`: the O(1) canonical
  two-pass scale/gram/chol/trsm sequence, keyed on the mixed-precision
  flag and on whether the ``auto`` guard precheck launches.  Host-side
  fusion must never move these pins (the modeled stream is shape-pure).
* **Shard reduction schedule** (``sharded``) —
  :meth:`repro.distributed.sharded.ShardSchedule.fingerprint`: the
  SHA-256 of the row deal plus the fan-in reduction rounds built by
  ``plan_qr`` for the reference shard count (4, binomial fan-in).  A
  moved pin means the row partition or tree changed — which silently
  changes which R the "bit-identical" contract pins.
* **Task-graph layers** (``sharded_graph``) —
  :meth:`repro.graph.highlevel.TaskGraph.fingerprint` of the
  sharded-reduction rounds compiled by their registered producer.  The
  hash covers layers, keys, deps and annotations.
* **Streaming chunk pipeline** (``streaming``) —
  :meth:`repro.graph.highlevel.TaskGraph.fingerprint` of the
  out-of-core chunk/factor/fold layers compiled by
  :func:`repro.streaming.graphs.emit_streaming_layers` for the
  reference chunk height (4096 rows).  A moved pin means the chunk row
  deal or the fold chain changed — which silently changes which R the
  streamed-equals-one-shot contract pins.
* **Static order** (``caqr_order``) —
  :func:`repro.graph.order.order_fingerprint` of the CAQR task graph:
  the deterministic critical-path-aware total order every consumer
  (the look-ahead driver, the stream scheduler) issues from.  A
  moved pin means the ordering pass changed its mind — which is a
  scheduling change even when the graph itself did not move.

Golden values live in ``tests/data/fingerprints.json``.  A mismatch
means a PR silently changed the launch stream or the task schedule —
rerun with ``--update`` only when that change is intentional, and say
why in the commit.

Usage::

    python tools/check_fingerprints.py            # CI gate (exit 1 on drift)
    python tools/check_fingerprints.py --update   # re-bless the goldens
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
try:  # self-locating: only extend sys.path when repro is not installed
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime.policy import CHOLQR, LOOKAHEAD, PATHS as _ENGINE_PATHS  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "data" / "fingerprints.json"

# (m, n) grid: the CI smoke shape, the bench grid, and a wide matrix
# that exercises multi-panel trailing updates; br=64 / pw=16 throughout
# (the paper's reference geometry).
SHAPES = [(1024, 256), (4096, 32), (16384, 64), (55296, 100), (110592, 100)]
BLOCK_ROWS = 64
PANEL_WIDTH = 16

# The modeled CAQR launch stream, pinned once under a name of its own.
LAUNCH_FAMILY = "caqr_launches"
# Every path the look-ahead engine runs, read from the engine table.
LOOKAHEAD_PATHS = tuple(
    name for name, spec in _ENGINE_PATHS.items() if spec.engine is LOOKAHEAD
)
# name -> (mixed, guard), read from the engine table: every CholeskyQR2
# path, its mixed-precision flag, and whether its guard precheck launches
# (the fallback path's).
CHOLQR_PATHS = {
    name: (spec.mixed, spec.fallback)
    for name, spec in _ENGINE_PATHS.items()
    if spec.engine is CHOLQR
}
# name -> (shards, fanin); the reference sharded configuration.
SHARDED_PATHS = {"sharded": (4, 2)}
# name -> (shards, fanin); the sharded-reduction layer pin (same
# reference configuration as the schedule pin above, hashed as layers).
SHARDED_GRAPH_PATHS = {"sharded_graph": (4, 2)}
# name -> chunk_rows; the streaming chunk-pipeline layer pin.
STREAMING_PATHS = {"streaming": 4096}
# name -> lookahead edge; the CAQR static-order pin.
CAQR_ORDER_PATHS = {"caqr_order": True}


def _sharded_fingerprint(m: int, n: int, shards: int, fanin: int) -> str:
    """SHA-256 of the shard row deal + fan-in reduction schedule."""
    from repro.distributed.sharded import build_shard_schedule

    return build_shard_schedule(m, n, shards, fanin).fingerprint()


def _sharded_graph_fingerprint(m: int, n: int, shards: int, fanin: int) -> str:
    """SHA-256 of the sharded reduction compiled to task-graph layers."""
    from repro.distributed.sharded import build_shard_schedule, emit_sharded_layers

    return emit_sharded_layers(build_shard_schedule(m, n, shards, fanin)).fingerprint()


def _streaming_fingerprint(m: int, n: int, chunk_rows: int) -> str:
    """SHA-256 of the streaming chunk/factor/fold pipeline layers."""
    from repro.streaming.graphs import emit_streaming_layers

    return emit_streaming_layers(m, n, chunk_rows).fingerprint()


def _caqr_order_fingerprint(m: int, n: int, cfg, lookahead: bool) -> str:
    """SHA-256 of the CAQR graph's deterministic static order."""
    from repro.graph.dag import emit_caqr_layers
    from repro.graph.order import order_fingerprint

    return order_fingerprint(emit_caqr_layers(m, n, cfg, lookahead=lookahead))


def _cholqr_fingerprint(m: int, n: int, cfg, mixed: bool, guard: bool) -> str:
    """SHA-256 of the modeled CholeskyQR2 kernel-launch sequence."""
    from repro.caqr_gpu import enumerate_cholqr2_launches
    from repro.gpusim.device import C2050

    h = hashlib.sha256()
    h.update(repr((m, n, mixed, guard)).encode())
    for spec in enumerate_cholqr2_launches(m, n, cfg, C2050, mixed=mixed, guard=guard):
        h.update(repr(spec).encode())
    return h.hexdigest()[:16]


def _schedule_fingerprint(m: int, n: int, path: str) -> str:
    """SHA-256 of the look-ahead panel partition + task DAG."""
    from repro.graph.executor import build_lookahead_schedule
    from repro.runtime import ExecutionPolicy

    policy = ExecutionPolicy(path=path, panel_width=PANEL_WIDTH, block_rows=BLOCK_ROWS)
    sched = build_lookahead_schedule(m, n, policy)
    h = hashlib.sha256()
    # The schedule's panel tuples carry row/column offsets but not the
    # matrix height, so (m, n) goes into the hash explicitly.
    h.update(repr((sched.m, sched.n)).encode())
    h.update(repr(sched.panels).encode())
    for t in sched.tasks:
        h.update(repr((t.kind, t.panel, t.lo, t.hi, t.deps)).encode())
    return h.hexdigest()[:16]


def compute_fingerprints() -> dict:
    """The full path x shape fingerprint table, as stored in the golden."""
    from repro.kernels.config import KernelConfig
    from repro.verify.invariants import launch_fingerprint

    cfg = KernelConfig(block_rows=BLOCK_ROWS, panel_width=PANEL_WIDTH)
    out: dict[str, dict[str, str]] = {
        LAUNCH_FAMILY: {f"{m}x{n}": launch_fingerprint(m, n, cfg)[:16] for m, n in SHAPES}
    }
    for path in LOOKAHEAD_PATHS:
        out[path] = {f"{m}x{n}": _schedule_fingerprint(m, n, path) for m, n in SHAPES}
    for path, (mixed, guard) in CHOLQR_PATHS.items():
        out[path] = {
            f"{m}x{n}": _cholqr_fingerprint(m, n, cfg, mixed, guard)
            for m, n in SHAPES
        }
    for path, (shards, fanin) in SHARDED_PATHS.items():
        out[path] = {
            f"{m}x{n}": _sharded_fingerprint(m, n, shards, fanin)
            for m, n in SHAPES
        }
    for path, (shards, fanin) in SHARDED_GRAPH_PATHS.items():
        out[path] = {
            f"{m}x{n}": _sharded_graph_fingerprint(m, n, shards, fanin)
            for m, n in SHAPES
        }
    for path, chunk_rows in STREAMING_PATHS.items():
        out[path] = {
            f"{m}x{n}": _streaming_fingerprint(m, n, chunk_rows)
            for m, n in SHAPES
        }
    for path, lookahead in CAQR_ORDER_PATHS.items():
        out[path] = {
            f"{m}x{n}": _caqr_order_fingerprint(m, n, cfg, lookahead)
            for m, n in SHAPES
        }
    return out


def diff_fingerprints(golden: dict, fresh: dict) -> list[str]:
    """Readable drift lines (empty when the tables agree)."""
    lines = []
    for path in sorted(set(golden) | set(fresh)):
        g_shapes = golden.get(path, {})
        f_shapes = fresh.get(path, {})
        for shape in sorted(set(g_shapes) | set(f_shapes)):
            g = g_shapes.get(shape)
            f = f_shapes.get(shape)
            if g != f:
                lines.append(
                    f"  {path:<13} {shape:<11} golden={g or '<missing>'} "
                    f"fresh={f or '<missing>'}"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--update", action="store_true", help="re-bless the golden file"
    )
    ap.add_argument("--golden", type=Path, default=GOLDEN)
    args = ap.parse_args(argv)

    fresh = compute_fingerprints()
    if args.update:
        args.golden.parent.mkdir(parents=True, exist_ok=True)
        args.golden.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.golden}")
        return 0
    if not args.golden.exists():
        print(f"golden {args.golden} not found — run with --update to create it")
        return 2
    golden = json.loads(args.golden.read_text())
    drift = diff_fingerprints(golden, fresh)
    n_pins = sum(len(v) for v in fresh.values())
    if drift:
        print(f"launch-fingerprint drift ({len(drift)} of {n_pins} pins moved):")
        print("\n".join(drift))
        print(
            "\nThe launch stream / look-ahead DAG is pinned; if this change is "
            "intentional, rerun with --update and explain it in the commit."
        )
        return 1
    print(f"fingerprints: all {n_pins} pins stable across "
          f"{len(fresh)} families x {len(SHAPES)} shapes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
