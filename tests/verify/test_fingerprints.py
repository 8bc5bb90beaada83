"""Golden launch/schedule fingerprints — the tier-1 face of the CI gate.

The committed ``tests/data/fingerprints.json`` pins the modeled CAQR
launch stream (``caqr_launches``) and the look-ahead task DAG (every
look-ahead path) for a grid of reference shapes;
``tools/check_fingerprints.py`` recomputes and diffs them in CI.  This
test keeps the same check inside `pytest` so drift is caught before a
PR ever reaches the workflow.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "tests" / "data" / "fingerprints.json"
TOOL = REPO_ROOT / "tools" / "check_fingerprints.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_fingerprints", TOOL)
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_fingerprints", mod)
    spec.loader.exec_module(mod)
    return mod


def test_golden_file_is_committed():
    assert GOLDEN.exists(), "tests/data/fingerprints.json missing"
    data = json.loads(GOLDEN.read_text())
    assert set(data) == {
        "caqr_launches",
        "batched",
        "structured",
        "lookahead",
        "cholqr2",
        "cholqr2_mixed",
        "auto",
        "sharded",
        "sharded_graph",
        "streaming",
        "caqr_order",
    }


def test_fingerprints_match_golden(checker):
    golden = json.loads(GOLDEN.read_text())
    fresh = checker.compute_fingerprints()
    drift = checker.diff_fingerprints(golden, fresh)
    assert not drift, "fingerprint drift:\n" + "\n".join(drift)


def test_serial_paths_share_one_stream(checker):
    """``batched``, ``structured`` and ``lookahead`` are the one
    look-ahead driver (the tree-merge kernel never changes the DAG), and
    the modeled launch stream is pinned once — pinned identities."""
    fresh = checker.compute_fingerprints()
    assert checker.LOOKAHEAD_PATHS == ("batched", "structured", "lookahead")
    assert fresh["structured"] == fresh["batched"]
    assert fresh["batched"] == fresh["lookahead"]
    assert sum(len(pins) for pins in fresh.values()) == 55


def test_cholqr_paths_pin_distinct_streams(checker):
    """Mixed precision and the auto guard precheck are visible in the
    modeled stream: each cholqr path pins its own fingerprints."""
    fresh = checker.compute_fingerprints()
    for shape in fresh["cholqr2"]:
        assert fresh["cholqr2"][shape] != fresh["cholqr2_mixed"][shape]
        assert fresh["auto"][shape] != fresh["cholqr2"][shape]


def test_sharded_fingerprint_tracks_the_schedule(checker):
    """The sharded pin is the reduction schedule's hash: a different
    shard count or fan-in must move it, and the golden must match what
    plan_qr builds for the reference configuration."""
    from repro.distributed.sharded import build_shard_schedule
    from repro.runtime import ExecutionPolicy, plan_qr

    shards, fanin = checker.SHARDED_PATHS["sharded"]
    golden = json.loads(GOLDEN.read_text())["sharded"]
    for shape, pin in golden.items():
        m, n = map(int, shape.split("x"))
        assert build_shard_schedule(m, n, shards, fanin).fingerprint() == pin
    plan = plan_qr(
        1024, 256, policy=ExecutionPolicy(path="sharded", shards=shards, fanin=fanin)
    )
    assert plan._schedule.fingerprint() == golden["1024x256"]
    moved = build_shard_schedule(1024, 256, shards + 1, fanin).fingerprint()
    assert moved != golden["1024x256"]


def test_sharded_graph_pin_tracks_the_layers(checker):
    """The sharded_graph pin is the layer compilation of the reference
    reduction schedule: a different shard count must move it while the
    schedule-level ``sharded`` pin stays the authority on the row deal."""
    from repro.distributed.sharded import build_shard_schedule, emit_sharded_layers

    shards, fanin = checker.SHARDED_GRAPH_PATHS["sharded_graph"]
    golden = json.loads(GOLDEN.read_text())["sharded_graph"]
    for shape, pin in golden.items():
        m, n = map(int, shape.split("x"))
        sched = build_shard_schedule(m, n, shards, fanin)
        assert emit_sharded_layers(sched).fingerprint() == pin, shape
    moved = emit_sharded_layers(
        build_shard_schedule(1024, 256, shards + 1, fanin)
    ).fingerprint()
    assert moved != golden["1024x256"]


def test_streaming_pin_tracks_the_chunk_pipeline(checker):
    """The streaming pin hashes the chunk/factor/fold layers for the
    reference chunk height: a different chunk_rows must move it, and
    plan_qr's task_graph() must agree with the gate."""
    from repro.runtime import ExecutionPolicy, plan_qr
    from repro.streaming.graphs import emit_streaming_layers

    chunk_rows = checker.STREAMING_PATHS["streaming"]
    golden = json.loads(GOLDEN.read_text())["streaming"]
    for shape, pin in golden.items():
        m, n = map(int, shape.split("x"))
        assert emit_streaming_layers(m, n, chunk_rows).fingerprint() == pin, shape
    plan = plan_qr(
        1024, 256,
        policy=ExecutionPolicy(path="streaming", chunk_rows=chunk_rows),
    )
    assert plan.task_graph().fingerprint() == golden["1024x256"]
    moved = emit_streaming_layers(1024, 256, chunk_rows // 2).fingerprint()
    assert moved != golden["1024x256"]


def test_caqr_order_pin_is_deterministic(checker):
    """Tier-1 ordering determinism: the static order of the CAQR graph is
    pinned, so any drift in the ordering pass fails fast — two fresh
    emissions must agree with each other and with the golden."""
    from repro.graph.dag import emit_caqr_layers
    from repro.graph.order import order_fingerprint
    from repro.kernels.config import KernelConfig

    cfg = KernelConfig(
        block_rows=checker.BLOCK_ROWS, panel_width=checker.PANEL_WIDTH
    )
    golden = json.loads(GOLDEN.read_text())["caqr_order"]
    for shape, pin in golden.items():
        m, n = map(int, shape.split("x"))
        first = order_fingerprint(emit_caqr_layers(m, n, cfg))
        again = order_fingerprint(emit_caqr_layers(m, n, cfg))
        assert first == again, shape
        assert first == pin, shape


def test_diff_is_readable(checker):
    golden = {"seed": {"8x8": "aaaa"}}
    fresh = {"seed": {"8x8": "bbbb"}}
    lines = checker.diff_fingerprints(golden, fresh)
    assert len(lines) == 1
    assert "aaaa" in lines[0] and "bbbb" in lines[0] and "seed" in lines[0]
