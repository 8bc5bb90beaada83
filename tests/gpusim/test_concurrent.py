"""Scheduler invariants for the stream-aware concurrent timeline."""

import pytest

from repro.gpusim import C2050, list_schedule_graph, occupancy_weight, time_launch
from repro.graph import emit_caqr_layers, simulate_caqr_overlap

SHAPES = [(1000, 192), (10000, 192), (4096, 64)]


@pytest.mark.parametrize("m,n", SHAPES)
def test_overlap_between_critical_path_and_serial(m, n):
    r = simulate_caqr_overlap(m, n, streams=4)
    assert r.critical_path_seconds <= r.overlap_seconds + 1e-15
    assert r.overlap_seconds <= r.serial_seconds + 1e-15


@pytest.mark.parametrize("m,n", SHAPES)
def test_overlap_strictly_improves(m, n):
    r = simulate_caqr_overlap(m, n, streams=4)
    assert r.overlap_seconds < r.serial_seconds
    assert r.speedup > 1.0
    assert r.hidden_seconds > 0.0


def test_stream_count_monotonicity():
    prev = None
    for streams in (1, 2, 3, 4, 6, 8):
        r = simulate_caqr_overlap(1000, 192, streams=streams)
        if prev is not None:
            assert r.overlap_seconds <= prev + 1e-15
        prev = r.overlap_seconds


def test_overlap_computes_the_static_order_once(monkeypatch):
    # simulate_caqr_overlap orders its graph once and schedules every
    # stream count in that order; each makespan equals a schedule that
    # orders the graph afresh.
    import repro.graph.order as order
    import repro.graph.overlap as overlap

    calls = []
    real = order.static_order

    def spy(tg):
        calls.append(tg)
        return real(tg)

    monkeypatch.setattr(order, "static_order", spy)
    monkeypatch.setattr(overlap, "static_order", spy)
    r = simulate_caqr_overlap(4096, 64, streams=4)
    assert calls == [r.graph]
    assert sorted(r.makespans) == [2, 3, 4]
    for s, makespan in r.makespans.items():
        assert list_schedule_graph(r.graph, C2050, streams=s).makespan == makespan


@pytest.mark.parametrize("m,n", SHAPES)
@pytest.mark.parametrize("streams", [2, 4])
def test_schedule_respects_streams_deps_capacity(m, n, streams):
    tg = emit_caqr_layers(m, n)
    tl = list_schedule_graph(tg, C2050, streams=streams)
    assert len(tl.launches) == len(tg)
    # In-order, non-overlapping within each stream.
    per_stream = {}
    for ev in sorted(tl.launches, key=lambda e: e.start):
        last = per_stream.get(ev.stream)
        if last is not None:
            assert ev.start >= last - 1e-15
        per_stream[ev.stream] = ev.finish
    assert set(per_stream) <= set(range(streams))
    # Dependencies finish before dependents start.
    finish = {ev.node_id: ev.finish for ev in tl.launches}
    start = {ev.node_id: ev.start for ev in tl.launches}
    for task in tg.tasks():
        for d in task.deps:
            assert start[task.seq] >= finish[tg.task(d).seq] - 1e-15
    # Device capacity never exceeded (bodies only).
    assert tl.max_concurrent_weight() <= 1.0 + 1e-9
    # Overhead precedes the body within each launch.
    for ev in tl.launches:
        assert ev.start <= ev.body_start <= ev.finish


def test_single_stream_degenerates_to_serial_order():
    tg = emit_caqr_layers(1000, 192)
    tl = list_schedule_graph(tg, C2050, streams=1)
    evs = sorted(tl.launches, key=lambda e: e.start)
    for a, b in zip(evs, evs[1:]):
        assert b.start >= a.finish - 1e-15


def test_occupancy_weight_bounds():
    tg = emit_caqr_layers(1000, 192)
    for task in tg.tasks():
        w = occupancy_weight(task.spec, C2050)
        assert 0.0 < w <= 1.0


def test_makespan_at_least_longest_launch():
    tg = emit_caqr_layers(4096, 64)
    tl = list_schedule_graph(tg, C2050, streams=4)
    longest = max(time_launch(t.spec, C2050).seconds for t in tg.tasks())
    assert tl.makespan >= longest
    assert 0.0 < tl.utilization() <= 1.0


def test_invalid_stream_count():
    tg = emit_caqr_layers(256, 48)
    with pytest.raises(ValueError):
        list_schedule_graph(tg, C2050, streams=0)
    with pytest.raises(ValueError):
        simulate_caqr_overlap(256, 48, streams=0)
