"""Span-based runtime tracer for the *real* execution paths.

The simulator has had a profiler view since PR 1 (:mod:`repro.gpusim.trace`)
— but the measured paths (batched, structured, look-ahead, plans,
dispatcher) were a black box.  This module instruments them with
hierarchical **spans**: named, categorized intervals on monotonic clocks
(:func:`time.perf_counter_ns`), stacked per execution context
(:class:`contextvars.ContextVar`, so nesting survives thread hops of the
look-ahead pool), each carrying free-form ``args`` and numeric
``counters``.

Design constraints, in priority order:

1. **Zero overhead when disabled.**  Instrumentation sites call
   :func:`span` / :func:`counters`; with no active session both return
   after one module-global ``is None`` check (no allocation, no clock
   read).  A benchmark assertion pins this (<2% on
   ``bench_realtime.py --quick``).
2. **Thread-correct.**  The active session is a module global (the
   look-ahead pool's worker threads must see it), the *span stack* is a
   context variable (each thread nests independently).  Finished spans
   are appended under the GIL (list.append is atomic); ids come from a
   lock-protected counter.
3. **No repro imports.**  The guard layer and the policy layer both call
   into this module; it depends only on the standard library, so it sits
   at the very bottom of the import graph.

Usage::

    from repro import obs

    with obs.capture() as session:
        plan = plan_qr(110_592, 100, policy=policy)
        plan.factor(A)
    trace = session.trace
    obs.write_chrome_trace(trace, "trace.json")   # load in Perfetto
    print(obs.render_spans(trace))
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Trace",
    "TraceSession",
    "capture",
    "counters",
    "enabled",
    "maybe_trace",
    "span",
]


@dataclass
class Span:
    """One named interval of the measured execution.

    ``tid`` is a session-local small integer (0 is the capturing thread),
    stable across export.  ``counters`` holds numeric quantities
    attributed to the span via :func:`counters` (bytes scanned, cache
    hits, flops); ``args`` holds identifying context (panel index, column
    range) that the Chrome exporter surfaces per event.
    """

    id: int
    parent: int | None
    name: str
    cat: str
    tid: int
    start_ns: int
    dur_ns: int = 0
    args: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.dur_ns / 1e9


@dataclass
class Trace:
    """A finished capture: the span forest plus session metadata."""

    spans: list[Span]
    start_ns: int
    end_ns: int
    meta: dict = field(default_factory=dict)
    thread_names: dict = field(default_factory=dict)  # tid -> label

    @property
    def wall_seconds(self) -> float:
        return max(0, self.end_ns - self.start_ns) / 1e9

    def roots(self) -> list[Span]:
        """Top-level spans (no parent), in start order."""
        return sorted((s for s in self.spans if s.parent is None), key=lambda s: s.start_ns)

    def children(self, span_id: int) -> list[Span]:
        return sorted(
            (s for s in self.spans if s.parent == span_id), key=lambda s: s.start_ns
        )

    def by_cat(self, cat: str) -> list[Span]:
        return [s for s in self.spans if s.cat == cat]

    def seconds_by_cat(self) -> dict:
        """Total span seconds grouped by category (nested spans included)."""
        out: dict = {}
        for s in self.spans:
            out[s.cat] = out.get(s.cat, 0.0) + s.seconds
        return out

    def total_counters(self) -> dict:
        """Sum of every span's counters (one figure per counter name)."""
        out: dict = {}
        for s in self.spans:
            for k, v in s.counters.items():
                out[k] = out.get(k, 0) + v
        return out

    def coverage(self, root: Span | None = None) -> float:
        """Fraction of ``root``'s duration covered by other spans.

        Every other span's interval is unioned (nesting collapses under
        the union; look-ahead worker spans count even though they are
        roots of their own threads) and clipped to the root.  Default
        root: the longest top-level span.  1.0 means the instrumentation
        accounts for the whole wall time; the CLI asserts >= 0.95 for
        its runs.
        """
        if root is None:
            roots = self.roots()
            if not roots:
                return 0.0
            root = max(roots, key=lambda s: s.dur_ns)
        if root.dur_ns <= 0:
            return 0.0
        lo, hi = root.start_ns, root.start_ns + root.dur_ns
        ivals = sorted(
            (max(lo, c.start_ns), min(hi, c.start_ns + c.dur_ns))
            for c in self.spans
            if c.id != root.id
        )
        covered = 0
        cur_lo = cur_hi = None
        for a, b in ivals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return covered / root.dur_ns


# ---------------------------------------------------------------------------
# The active session -----------------------------------------------------------
# ---------------------------------------------------------------------------

# Module global so pool worker threads observe the capture; ``None`` is
# the disabled fast path every instrumentation site checks first.
_session: "TraceSession | None" = None
_session_lock = threading.Lock()

# Per-context stack of *open* spans.  A worker thread starts with the
# default (empty) stack — its spans are roots of that thread, which is
# exactly the stream/worker attribution we want.
_stack: ContextVar[tuple] = ContextVar("repro_obs_stack", default=())


class TraceSession:
    """One capture: activate with ``with session:``, read ``.trace`` after.

    Re-entrant: a session stored on an :class:`ExecutionPolicy` is
    activated once per traced call and accumulates spans across calls
    (the streaming-RPCA regime: one session, many factorizations).
    Nested activation of *another* session shadows this one until it
    exits.
    """

    def __init__(self, meta: dict | None = None) -> None:
        self.meta = dict(meta or {})
        self.spans: list[Span] = []
        self.start_ns: int | None = None
        self.end_ns: int | None = None
        self._ids = 0
        self._lock = threading.Lock()
        # Per-thread tid slot.  Keyed on the thread object, not on
        # threading.get_ident(): the OS reuses an exited thread's ident,
        # which would merge two short-lived workers into one tid.
        self._local = threading.local()
        self._ntids = 0
        self._prev: list[TraceSession | None] = []

    # -- bookkeeping -------------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _tid(self) -> int:
        tid = getattr(self._local, "tid", None)
        if tid is None:
            with self._lock:
                tid = self._local.tid = self._ntids
                self._ntids += 1
        return tid

    # -- activation --------------------------------------------------------

    def __enter__(self) -> "TraceSession":
        global _session
        with _session_lock:
            self._prev.append(_session)
            _session = self
        self._tid()  # tid 0 = the capturing thread
        if self.start_ns is None:
            self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        global _session
        self.end_ns = time.perf_counter_ns()
        with _session_lock:
            _session = self._prev.pop() if self._prev else None

    # -- results -----------------------------------------------------------

    @property
    def trace(self) -> Trace:
        """The capture as an immutable-ish :class:`Trace` snapshot."""
        start = self.start_ns if self.start_ns is not None else 0
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        names = {tid: ("main" if tid == 0 else f"worker-{tid}") for tid in range(self._ntids)}
        return Trace(
            spans=list(self.spans),
            start_ns=start,
            end_ns=end,
            meta=dict(self.meta),
            thread_names=names,
        )


def capture(meta: dict | None = None) -> TraceSession:
    """Start-a-capture context manager: ``with obs.capture() as s: ...``."""
    return TraceSession(meta=meta)


def enabled() -> bool:
    """Whether a trace session is currently active."""
    return _session is not None


# ---------------------------------------------------------------------------
# Instrumentation sites --------------------------------------------------------
# ---------------------------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing context manager — the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    """An open span: records duration and pops the stack on exit."""

    __slots__ = ("session", "span", "_token")

    def __init__(self, session: TraceSession, span: Span) -> None:
        self.session = session
        self.span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _stack.set(_stack.get() + (self.span,))
        self.span.start_ns = time.perf_counter_ns()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.dur_ns = time.perf_counter_ns() - self.span.start_ns
        _stack.reset(self._token)
        self.session.spans.append(self.span)  # GIL-atomic
        return False


def span(name: str, cat: str = "", **args):
    """Open a span under the innermost open span of this context.

    No-op (one global check, no allocation) when tracing is disabled.
    Use as ``with obs.span("factor", cat="factor", panel=3): ...``.
    """
    sess = _session
    if sess is None:
        return _NOOP
    stack = _stack.get()
    parent = stack[-1].id if stack else None
    s = Span(
        id=sess._next_id(),
        parent=parent,
        name=name,
        cat=cat,
        tid=sess._tid(),
        start_ns=time.perf_counter_ns(),
        args=args,
    )
    return _LiveSpan(sess, s)


def counters(**kw) -> None:
    """Accumulate numeric counters onto the innermost open span.

    With no open span (but an active session) the counters land on a
    zero-length synthetic span, so nothing is silently dropped.  No-op
    when tracing is disabled.
    """
    sess = _session
    if sess is None:
        return
    stack = _stack.get()
    if stack:
        c = stack[-1].counters
        for k, v in kw.items():
            c[k] = c.get(k, 0) + v
        return
    s = Span(
        id=sess._next_id(),
        parent=None,
        name="counters",
        cat="counters",
        tid=sess._tid(),
        start_ns=time.perf_counter_ns(),
        counters=dict(kw),
    )
    sess.spans.append(s)


class _NoopCtx:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_CTX = _NoopCtx()


def maybe_trace(session: "TraceSession | None"):
    """Activate ``session`` for one call; no-op for ``None``.

    The :class:`~repro.runtime.policy.ExecutionPolicy` ``trace=`` field
    is surfaced through this helper at every policy-accepting entry
    point: ``with maybe_trace(policy.trace): ...``.
    """
    return _NOOP_CTX if session is None else session
