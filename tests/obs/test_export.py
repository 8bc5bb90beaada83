"""Exporters: Chrome trace_event schema, summaries, timeline lifting."""

from __future__ import annotations

import json
from dataclasses import fields as dc_fields

import pytest

from repro import obs
from repro.runtime import ExecutionPolicy, plan_qr


@pytest.fixture(scope="module")
def traced_run():
    import numpy as np

    rng = np.random.default_rng(99)
    A = rng.standard_normal((2048, 96))
    # The modeled timeline runs the paper's 16-wide panels; so does the
    # measured run (unset, the width would be one 96-column panel).
    policy = ExecutionPolicy(path="lookahead", panel_width=16)
    with obs.capture(meta={"case": "export-test"}) as session:
        plan = plan_qr(*A.shape, policy=policy)
        plan.factor(A)
    return session.trace, plan


def test_chrome_trace_schema(traced_run):
    trace, _ = traced_run
    doc = obs.to_chrome_trace(trace)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["case"] == "export-test"
    events = doc["traceEvents"]
    assert events, "empty trace"
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(meta) + len(complete) == len(events)
    # One thread_name metadata event per attributed thread.
    assert {e["args"]["name"] for e in meta} == set(trace.thread_names.values())
    for e in complete:
        assert set(e) >= {"ph", "pid", "tid", "ts", "dur", "name", "cat", "args"}
        assert isinstance(e["tid"], int)
        assert e["ts"] >= 0.0  # relative to capture start
        assert e["dur"] >= 0.0
    # The document is actually JSON-serializable (Perfetto-loadable).
    json.dumps(doc)


def test_chrome_trace_nesting_well_formed(traced_run):
    """Per (tid): children intervals lie inside their parents' — the
    containment Chrome/Perfetto reconstructs nesting from."""
    trace, _ = traced_run
    by_id = {s.id: s for s in trace.spans}
    for s in trace.spans:
        if s.parent is None:
            continue
        p = by_id[s.parent]
        assert p.tid == s.tid, "parent and child on different threads"
        assert p.start_ns <= s.start_ns
        assert s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns + 1  # ns slack


def test_write_chrome_trace_roundtrip(traced_run, tmp_path):
    trace, _ = traced_run
    path = obs.write_chrome_trace(trace, tmp_path / "t.json")
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == len(obs.to_chrome_trace(trace)["traceEvents"])


def test_span_summary_shares(traced_run):
    trace, _ = traced_run
    rows = obs.span_summary(trace)
    assert rows == sorted(rows, key=lambda r: -r["seconds"])
    for r in rows:
        assert set(r) == {"name", "kind", "seconds", "share", "events", "counters"}
        assert r["events"] >= 1
    total_by_name = {r["name"]: r["seconds"] for r in rows}
    assert abs(
        total_by_name["plan.factor"]
        - sum(s.seconds for s in trace.spans if s.name == "plan.factor")
    ) < 1e-12


def test_render_spans_mentions_every_name(traced_run):
    trace, _ = traced_run
    text = obs.render_spans(trace)
    for r in obs.span_summary(trace):
        assert r["name"] in text


def test_from_timeline_counters_roundtrip(traced_run):
    """Lifting a simulated timeline preserves every traffic counter —
    Trace.total_counters() must reproduce Timeline.counters field by field."""
    _, plan = traced_run
    tl = plan.simulate().timeline
    trace = obs.from_timeline(tl)
    lifted = trace.total_counters()
    expect = tl.counters
    for f in dc_fields(expect):
        want = getattr(expect, f.name)
        assert lifted.get(f.name, 0) == want, f.name
    # Span seconds reproduce the serial timeline end-to-end (each event
    # rounds to whole ns on the synthetic clock, so tolerance scales
    # with the event count).
    assert abs(trace.wall_seconds - sum(e.seconds for e in tl.events)) < 1e-9 * max(
        1, len(tl.events)
    )
    # And the lifted trace exports like any measured one.
    doc = obs.to_chrome_trace(trace)
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_modeled_vs_measured_overlay(traced_run):
    trace, plan = traced_run
    overlay = obs.modeled_vs_measured(trace, plan.simulate())
    assert {p.phase for p in overlay.phases} == {"factor", "update"}
    for p in overlay.phases:
        assert p.modeled_seconds > 0
        assert p.measured_seconds > 0
        assert 0.0 <= p.modeled_share <= 1.0
        assert 0.0 <= p.measured_share <= 1.0
    # Shares sum to 1 on both sides (phase totals are the denominators).
    assert abs(sum(p.modeled_share for p in overlay.phases) - 1.0) < 1e-9
    assert abs(sum(p.measured_share for p in overlay.phases) - 1.0) < 1e-9
    text = obs.format_overlay(overlay)
    assert "share err" in text and "factor" in text
