"""Properties of the static ordering pass (``repro.graph.order``).

The order replaced implicit program-order scheduling, so these pin its
contract: valid topological order over every producer's graphs,
deterministic across runs / interpreters / hash seeds, equal to the
look-ahead driver's task order, annotation-aware, and — for the CAQR
graph — collapsing back onto a single stream launch for launch.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.dag import emit_caqr_layers
from repro.graph.highlevel import TaskGraph, producer
from repro.graph.order import critical_path_lengths, order_fingerprint, static_order

REPO = Path(__file__).resolve().parents[2]


def _producer_graphs():
    from repro.distributed.sharded import build_shard_schedule
    from repro.graph.executor import build_lookahead_schedule
    from repro.runtime.policy import ExecutionPolicy

    return {
        "caqr": producer("caqr")(4096, 128),
        "caqr_barrier": producer("caqr")(4096, 128, lookahead=False),
        "streaming": producer("streaming")(40000, 64, 4096),
        "sharded": producer("sharded_reduction")(
            build_shard_schedule(8192, 64, shards=6, fanin=2)
        ),
        "lookahead": producer("lookahead")(
            build_lookahead_schedule(2048, 96, ExecutionPolicy(path="lookahead", panel_width=16))
        ),
    }


def assert_topological(tg, order):
    assert sorted(map(repr, order)) == sorted(repr(t.key) for t in tg.tasks())
    pos = {k: i for i, k in enumerate(order)}
    for t in tg.tasks():
        for d in t.deps:
            assert pos[d] < pos[t.key], f"{d!r} must precede {t.key!r}"


class TestTopological:
    @pytest.mark.parametrize("name", list(_producer_graphs()))
    def test_every_producer_graph_orders_topologically(self, name):
        tg = _producer_graphs()[name]
        assert_topological(tg, static_order(tg))

    def test_cycle_is_rejected(self):
        tg = TaskGraph()
        tg.add_task("a", "x", deps=["y"])
        tg.add_task("a", "y", deps=["x"])
        with pytest.raises(ValueError, match="dependency cycle"):
            static_order(tg)


class TestDeterminism:
    def test_rebuilt_graph_orders_identically(self):
        for name, tg in _producer_graphs().items():
            again = _producer_graphs()[name]
            assert static_order(tg) == static_order(again), name
            assert order_fingerprint(tg) == order_fingerprint(again), name

    def test_order_is_hash_seed_independent(self):
        # The CI determinism pin: keys are tuples of strings and ints, so
        # a hash-order leak anywhere in the pass would show up as a
        # different order under a different PYTHONHASHSEED.
        prog = (
            "from repro.graph.highlevel import producer\n"
            "from repro.graph.order import order_fingerprint\n"
            "from repro.distributed.sharded import build_shard_schedule\n"
            "print(order_fingerprint(producer('caqr')(4096, 128)))\n"
            "print(order_fingerprint(producer('sharded_reduction')"
            "(build_shard_schedule(8192, 64, shards=6, fanin=2))))\n"
            "print(order_fingerprint(producer('streaming')(40000, 64, 4096)))\n"
        )
        outs = []
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(REPO / "src")
            proc = subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]

    def test_driver_task_order_is_the_static_order(self):
        # The look-ahead driver runs its schedule's tasks in list order;
        # that must be its task graph's static order at every shape,
        # width and block height, wide and degenerate shapes included.
        from repro.graph.executor import build_lookahead_schedule, emit_lookahead_layers
        from repro.runtime.policy import ExecutionPolicy
        from tests.graph.test_executor import SHAPES

        shapes = SHAPES + [((0, 5), {}), ((5, 0), {}), ((0, 0), {}), ((1, 1), {}), ((3, 7), {})]
        for (m, n), kw in shapes:
            for width in (None, 1, 7, 16):
                for block_rows in (None, 8, 64):
                    fields = {**kw, "panel_width": width, "block_rows": block_rows}
                    sched = build_lookahead_schedule(
                        m, n, ExecutionPolicy(path="lookahead", **fields)
                    )
                    tg = emit_lookahead_layers(sched)
                    seqs = [tg.task(key).seq for key in static_order(tg)]
                    assert seqs == list(range(len(sched.tasks))), ((m, n), fields)


class TestAnnotations:
    def _two_roots(self, hi_priority):
        tg = TaskGraph()
        tg.add_layer("lo", priority=0)
        tg.add_layer("hi", priority=hi_priority)
        tg.add_task("lo", "first_emitted")
        tg.add_task("hi", "second_emitted")
        return tg

    def test_layer_priority_beats_emission_order(self):
        assert static_order(self._two_roots(hi_priority=3))[0] == "second_emitted"

    def test_without_priority_emission_order_wins(self):
        assert static_order(self._two_roots(hi_priority=0))[0] == "first_emitted"

    def test_priority_beats_critical_path(self):
        tg = TaskGraph()
        tg.add_layer("urgent", priority=1)
        # Long chain rooted at a normal-priority task...
        prev = tg.add_task("work", ("chain", 0))
        for i in range(1, 5):
            prev = tg.add_task("work", ("chain", i), deps=[prev])
        # ...still yields to the priority-annotated singleton.
        tg.add_task("urgent", "vip")
        assert static_order(tg)[0] == "vip"

    def test_longer_critical_path_ordered_first(self):
        tg = TaskGraph()
        tg.add_task("work", ("short", 0))  # emitted first, cp = 1
        prev = tg.add_task("work", ("long", 0))  # cp = 3
        for i in range(1, 3):
            prev = tg.add_task("work", ("long", i), deps=[prev])
        assert static_order(tg)[0] == ("long", 0)

    def test_cost_annotation_weights_the_path(self):
        tg = TaskGraph()
        tg.add_layer("heavy", cost=10.0)
        tg.add_task("light", ("light", 0))
        tg.add_task("light", ("light", 1), deps=[("light", 0)])
        tg.add_task("heavy", ("heavy", 0))  # one task, but weight 10
        cp = critical_path_lengths(tg)
        assert cp[("heavy", 0)] == 10.0
        assert cp[("light", 0)] == 2.0
        assert static_order(tg)[0] == ("heavy", 0)

    def test_stream_annotation_pins_simulator_streams(self):
        from repro.gpusim import list_schedule_graph

        tg = emit_caqr_layers(4096, 128)
        # Re-emit with explicit stream pins via a synthetic wrapper graph:
        pinned = TaskGraph(name=tg.name)
        pinned.add_layer("panel", stream=0)
        pinned.add_layer("tree", stream=0)
        pinned.add_layer("trailing", stream=1)
        for t in tg.tasks():
            pinned.add_task(t.layer, t.key, deps=t.deps, spec=t.spec, **dict(t.info))
        tl = list_schedule_graph(pinned, streams=4)
        by_layer = {}
        for ev in tl.launches:
            task = next(t for t in pinned.tasks() if t.seq == ev.node_id)
            by_layer.setdefault(task.layer, set()).add(ev.stream)
        assert by_layer["panel"] == {0}
        assert by_layer["tree"] == {0}
        assert by_layer["trailing"] == {1}


class TestCAQRSerialMerge:
    """On one stream the CAQR task graph merges back into the serial
    launch stream: same nodes, a topological sequence, zero idle time."""

    @pytest.mark.parametrize("shape", [(2048, 128), (16384, 192)])
    @pytest.mark.parametrize("lookahead", [True, False])
    def test_single_stream_matches_serial_launch_dag(self, shape, lookahead):
        from repro.gpusim import list_schedule_graph, time_launch

        m, n = shape
        tg = emit_caqr_layers(m, n, lookahead=lookahead)
        tl = list_schedule_graph(tg, streams=1)
        # Launch for launch: every task appears exactly once.
        assert sorted(ev.node_id for ev in tl.launches) == [t.seq for t in tg.tasks()]
        # The sequence respects the graph's own dependencies.
        order = [ev.node_id for ev in sorted(tl.launches, key=lambda e: e.start)]
        pos = {nid: i for i, nid in enumerate(order)}
        for t in tg.tasks():
            for d in t.deps:
                assert pos[tg.task(d).seq] < pos[t.seq]
        # One stream, back-to-back: the makespan is the serial runtime.
        serial = sum(time_launch(t.spec, tl.device).seconds for t in tg.tasks())
        assert tl.makespan == pytest.approx(serial, rel=1e-12)

    def test_lowering_preserves_node_identity(self):
        # Scheduling lowers each task to one launch that keeps the task's
        # emission index as its node id and its spec's kernel and tag.
        from repro.gpusim import list_schedule_graph

        tg = emit_caqr_layers(2048, 128)
        tl = list_schedule_graph(tg, streams=4)
        by_seq = {t.seq: t for t in tg.tasks()}
        assert sorted(ev.node_id for ev in tl.launches) == sorted(by_seq)
        for ev in tl.launches:
            task = by_seq[ev.node_id]
            assert (ev.kernel, ev.tag) == (task.spec.kernel, task.spec.tag)
