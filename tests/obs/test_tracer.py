"""Tracer core: sessions, nesting, threads, counters, zero-overhead path."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.caqr import caqr
from repro.obs import tracer
from repro.runtime import ExecutionPolicy, plan_qr


def test_disabled_by_default():
    assert not obs.enabled()
    # span() and counters() must be no-ops with no active session.
    with obs.span("anything", cat="x", arg=1) as s:
        assert s is tracer._NOOP
    obs.counters(bytes=123)  # no crash, no state


def test_span_nesting_and_parents():
    with obs.capture() as session:
        with obs.span("outer", cat="a") as outer:
            with obs.span("inner", cat="b") as inner:
                pass
        with obs.span("sibling", cat="a"):
            pass
    t = session.trace
    assert len(t.spans) == 3
    by_name = {s.name: s for s in t.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == outer.id
    assert by_name["sibling"].parent is None
    # Child interval lies inside the parent's.
    o, i = by_name["outer"], by_name["inner"]
    assert o.start_ns <= i.start_ns
    assert i.start_ns + i.dur_ns <= o.start_ns + o.dur_ns
    assert inner.id == i.id


def test_counters_accumulate_on_open_span():
    with obs.capture() as session:
        with obs.span("work", cat="w"):
            obs.counters(items=2, bytes=100)
            obs.counters(items=3)
        obs.counters(orphan=1)  # no open span: synthetic zero-length span
    t = session.trace
    by_name = {s.name: s for s in t.spans}
    assert by_name["work"].counters == {"items": 5, "bytes": 100}
    assert t.total_counters() == {"items": 5, "bytes": 100, "orphan": 1}


def test_worker_threads_get_own_tids():
    def worker():
        with obs.span("task", cat="t"):
            time.sleep(0.001)

    with obs.capture() as session:
        with obs.span("main-side", cat="t"):
            pass
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    t = session.trace
    tids = {s.tid for s in t.spans}
    assert 0 in tids  # capturing thread
    assert len(tids) == 3  # two workers got distinct tids
    assert t.thread_names[0] == "main"
    # Worker spans are roots of their threads (no cross-thread parent).
    for s in t.spans:
        if s.tid != 0:
            assert s.parent is None


def test_sequential_workers_get_distinct_tids():
    # The second thread starts after the first has exited, so the OS may
    # hand it the same thread ident; it is still a different thread.
    def worker():
        with obs.span("task", cat="t"):
            pass

    with obs.capture() as session:
        for _ in range(2):
            th = threading.Thread(target=worker)
            th.start()
            th.join()
    tids = [s.tid for s in session.trace.spans]
    assert tids == [1, 2]
    assert session.trace.thread_names == {0: "main", 1: "worker-1", 2: "worker-2"}


def test_nested_sessions_shadow():
    with obs.capture() as outer_s:
        with obs.span("before", cat="x"):
            pass
        with obs.capture() as inner_s:
            with obs.span("shadowed", cat="x"):
                pass
        assert obs.enabled()
        with obs.span("after", cat="x"):
            pass
    assert not obs.enabled()
    assert [s.name for s in outer_s.trace.spans] == ["before", "after"]
    assert [s.name for s in inner_s.trace.spans] == ["shadowed"]


def test_policy_trace_accumulates_across_calls(rng):
    A = rng.standard_normal((256, 48))
    session = obs.capture()
    policy = ExecutionPolicy(path="batched", trace=session)
    caqr(A, policy=policy)
    n_first = len(session.spans)
    caqr(A, policy=policy)
    assert n_first > 0
    assert len(session.spans) > n_first
    assert not obs.enabled()  # deactivated between calls


def _best_coverage(A, policy, attempts=3):
    # A scheduler stall or GC pause during one ~20 ms factorization can
    # punch a hole between spans that is not an instrumentation gap, so
    # take the best of a few attempts (a real gap persists in all of them).
    best, trace = 0.0, None
    for _ in range(attempts):
        with obs.capture() as session:
            plan = plan_qr(*A.shape, policy=policy)
            plan.factor(A)
        t = session.trace
        root = max(
            (s for s in t.spans if s.name == "plan.factor"), key=lambda s: s.dur_ns
        )
        cov = t.coverage(root)
        if cov > best:
            best, trace = cov, t
        if best >= 0.90:
            break
    return best, trace


def test_coverage_serial_paths(rng):
    A = rng.standard_normal((2048, 96))
    for path in ("batched", "structured", "lookahead"):
        cov, _ = _best_coverage(A, ExecutionPolicy(path=path))
        assert cov >= 0.90, f"{path}: instrumentation gap ({cov:.1%})"


def test_tracing_does_not_change_results(rng):
    A = rng.standard_normal((1024, 64))
    f_plain = caqr(A)
    with obs.capture():
        f_traced = caqr(A)
    np.testing.assert_array_equal(f_plain.R, f_traced.R)


def test_disabled_span_overhead_is_negligible():
    """The disabled fast path must stay cheap enough to leave permanently
    in the hot loops: sub-microsecond per call site (one global check)."""
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("hot", cat="x"):
            pass
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 5e-6, f"disabled span() costs {per_call * 1e9:.0f} ns"


def test_guard_scan_span_and_counters(rng):
    A = rng.standard_normal((512, 32))
    with obs.capture() as session:
        caqr(A)
    t = session.trace
    scans = t.by_cat("guard")
    assert len(scans) == 1  # validated exactly once end to end
    total = t.total_counters()
    assert total["guard_scans"] == 1
    assert total["guard_scan_bytes"] == A.nbytes


def test_dispatcher_cache_counters(rng):
    from repro.dispatch import QRDispatcher

    d = QRDispatcher()
    A = rng.standard_normal((2048, 64))
    with obs.capture() as session:
        d.qr(A)
        d.qr(A)
    total = session.trace.total_counters()
    assert total.get("pred_cache_misses") == 1
    assert total.get("pred_cache_hits") == 1
    # Plan cache counters only tick when the caqr engine wins the shape.
    if any(s.args.get("engine") == "caqr" for s in session.trace.spans if s.name == "engine"):
        assert total.get("plan_cache_misses") == 1
        assert total.get("plan_cache_hits") == 1


def test_maybe_trace_none_is_noop():
    with tracer.maybe_trace(None):
        assert not obs.enabled()
    s = obs.capture()
    with tracer.maybe_trace(s):
        assert obs.enabled()
    assert not obs.enabled()


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    assert tracer._session is None, "a test leaked an active trace session"
