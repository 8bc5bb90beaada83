"""Observability overhead budget: disabled tracing must stay under 2%.

The tracer's instrumentation sites live permanently inside the hot
loops (``span()`` / ``counters()`` in the panel loop, the apply kernels,
the guard layer), so the disabled fast path carries a pinned budget:
across the quick bench shape, the *total* cost of every instrumentation
call a factorization makes must be below 2% of that factorization's
wall time.

The budget is asserted from first principles — (sites hit per call) x
(measured cost of one disabled call) vs the measured factorization time
— rather than by differencing two noisy end-to-end timings, so the test
is stable on shared CI runners while still failing if someone makes the
disabled path allocate, read a clock, or take a lock.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.core.caqr import caqr
from repro.runtime import ExecutionPolicy

# The quick bench shape (benchmarks/bench_realtime.py QUICK_SHAPES).
M, N, BR, PW = 4096, 32, 64, 16
BUDGET = 0.02


def _policy(path: str, **kw) -> ExecutionPolicy:
    return ExecutionPolicy(path=path, block_rows=BR, panel_width=PW, **kw)


def _disabled_site_cost(calls: int = 50_000) -> float:
    """Seconds per disabled span() call site (enter + exit included)."""
    assert not obs.enabled()
    t0 = time.perf_counter()
    for _ in range(calls):
        with obs.span("probe", cat="x"):
            pass
    return (time.perf_counter() - t0) / calls


def _sites_per_call(A: np.ndarray, policy: ExecutionPolicy) -> int:
    """Instrumentation sites one factorization executes (span + counters)."""
    with obs.capture() as session:
        caqr(A, policy=policy)
    trace = session.trace
    total_counter_keys = sum(len(s.counters) for s in trace.spans)
    return len(trace.spans) + total_counter_keys


def _best_time(fn, reps: int = 3) -> float:
    fn()
    return min(
        (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(reps)
    )


def test_disabled_tracing_overhead_under_budget(archive):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((M, N))
    site_cost = _disabled_site_cost()
    lines = [f"disabled-tracer overhead budget ({M}x{N}, {BUDGET:.0%} cap)"]
    lines.append(f"  per-site disabled cost: {site_cost * 1e9:8.1f} ns")
    policy = _policy("batched")
    sites = _sites_per_call(A, policy)
    assert not obs.enabled()
    seconds = _best_time(lambda: caqr(A, policy=policy))
    overhead = sites * site_cost
    share = overhead / seconds
    lines.append(
        f"  {policy.path:<10} {sites:5d} sites x {site_cost * 1e9:6.1f} ns "
        f"= {overhead * 1e6:8.1f} us over {seconds * 1e3:8.2f} ms "
        f"-> {share:.3%}"
    )
    assert share < BUDGET, (
        f"{policy.path}: disabled instrumentation costs {share:.2%} of a "
        f"{seconds * 1e3:.1f} ms factorization (budget {BUDGET:.0%})"
    )
    archive("bench_obs_overhead", "\n".join(lines))


def test_enabled_tracing_overhead_is_bounded():
    """Tracing *enabled* is allowed to cost something, but capturing a
    quick-shape factorization must stay within 2x of the untraced run —
    the 'low-overhead' half of the tracer's contract."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((M, N))
    policy = _policy("batched")
    plain = _best_time(lambda: caqr(A, policy=policy), reps=5)

    def traced():
        with obs.capture():
            caqr(A, policy=policy)

    captured = _best_time(traced, reps=5)
    assert captured < 2.0 * plain + 0.005, (
        f"enabled tracing: {captured * 1e3:.2f} ms vs {plain * 1e3:.2f} ms untraced"
    )
