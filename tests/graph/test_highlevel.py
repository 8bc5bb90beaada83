"""The TaskGraph representation: construction rules, identity, registry."""

from __future__ import annotations

import pytest

from repro.graph.highlevel import PRODUCERS, LayerAnnotations, TaskGraph, producer


def _chain(n=3, name="chain"):
    tg = TaskGraph(name=name)
    prev = tg.add_task("work", ("t", 0))
    for i in range(1, n):
        prev = tg.add_task("work", ("t", i), deps=[prev])
    return tg


class TestConstruction:
    def test_duplicate_task_key_raises(self):
        tg = TaskGraph()
        tg.add_task("a", "k")
        with pytest.raises(ValueError, match="duplicate task key"):
            tg.add_task("a", "k")

    def test_duplicate_layer_raises(self):
        tg = TaskGraph()
        tg.add_layer("panel", priority=1)
        with pytest.raises(ValueError, match="already exists"):
            tg.add_layer("panel")

    def test_layers_spring_into_existence(self):
        tg = TaskGraph()
        tg.add_task("fresh", "k")
        assert "fresh" in tg.layers
        assert tg.layers["fresh"].annotations == LayerAnnotations()

    def test_duplicate_deps_collapse_preserving_first(self):
        tg = TaskGraph()
        tg.add_task("a", "x")
        tg.add_task("a", "y")
        tg.add_task("a", "z", deps=["y", "x", "y", "x"])
        assert tg.task("z").deps == ("y", "x")

    def test_emission_seq_is_global_across_layers(self):
        tg = TaskGraph()
        tg.add_task("a", "k0")
        tg.add_task("b", "k1")
        tg.add_task("a", "k2")
        assert [tg.task(k).seq for k in ("k0", "k1", "k2")] == [0, 1, 2]

    def test_ordering_cost_precedence(self):
        tg = TaskGraph()
        tg.add_layer("weighted", cost=3.0)
        tg.add_task("weighted", "layer_default")
        tg.add_task("weighted", "explicit", cost=7.0)
        tg.add_task("bare", "fallback")
        assert tg.ordering_cost(tg.task("layer_default")) == 3.0
        assert tg.ordering_cost(tg.task("explicit")) == 7.0
        assert tg.ordering_cost(tg.task("fallback")) == 1.0


class TestValidate:
    def test_unknown_dep_raises(self):
        tg = TaskGraph()
        tg.add_task("a", "k", deps=["ghost"])
        with pytest.raises(ValueError, match="unknown key"):
            tg.validate()

    def test_self_dep_raises(self):
        tg = TaskGraph()
        tg.add_task("a", "k", deps=["k"])
        with pytest.raises(ValueError, match="depends on itself"):
            tg.validate()

    def test_cycle_raises(self):
        tg = TaskGraph()
        tg.add_task("a", "x", deps=["y"])
        tg.add_task("a", "y", deps=["x"])
        with pytest.raises(ValueError, match="dependency cycle"):
            tg.validate()

    def test_forward_deps_are_legal(self):
        # Emission order need not be topological: a dep may point at a
        # task emitted later.
        tg = TaskGraph()
        tg.add_task("a", "late_consumer", deps=["early_producer"])
        tg.add_task("a", "early_producer")
        tg.validate()


class TestFingerprint:
    def test_structure_changes_move_the_fingerprint(self):
        base = _chain(3).fingerprint()
        assert _chain(4).fingerprint() != base
        assert _chain(3, name="other").fingerprint() != base
        with_cost = _chain(3)
        # Rebuild with a cost annotation on the layer.
        tg = TaskGraph(name="chain")
        tg.add_layer("work", cost=2.0)
        prev = tg.add_task("work", ("t", 0))
        for i in range(1, 3):
            prev = tg.add_task("work", ("t", i), deps=[prev])
        assert tg.fingerprint() != with_cost.fingerprint()

    def test_info_annotations_are_hashed(self):
        a = TaskGraph()
        a.add_task("l", "k", panel=0)
        b = TaskGraph()
        b.add_task("l", "k", panel=1)
        assert a.fingerprint() != b.fingerprint()


class TestRegistry:
    def test_every_producer_resolves(self):
        for name in PRODUCERS:
            fn = producer(name)
            assert callable(fn), name

    def test_unknown_producer_raises_with_roster(self):
        with pytest.raises(KeyError, match="caqr"):
            producer("nope")

    def test_producers_emit_taskgraphs(self):
        from repro.distributed.sharded import build_shard_schedule
        from repro.graph.executor import build_lookahead_schedule
        from repro.runtime.policy import ExecutionPolicy

        graphs = [
            producer("caqr")(2048, 128),
            producer("streaming")(20000, 64, 4096),
            producer("sharded_reduction")(build_shard_schedule(4096, 64, shards=4)),
            producer("lookahead")(
                build_lookahead_schedule(1024, 96, ExecutionPolicy(path="lookahead", panel_width=16))
            ),
        ]
        for tg in graphs:
            assert isinstance(tg, TaskGraph)
            tg.validate()
            assert len(tg) > 0


def test_describe_lists_layers():
    tg = producer("streaming")(20000, 64, 4096)
    text = tg.describe()
    for layer in ("ingest", "factor", "fold"):
        assert layer in text
