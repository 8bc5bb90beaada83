"""Numeric execution of the CAQR launch DAG — look-ahead CAQR.

The same dependency structure that :mod:`repro.graph.dag` builds for
the simulator, run for real over the batched compact-WY kernels of
:mod:`repro.smallblas.wy`.  The factorization is a list of tasks — one
panel factor ``F(p)`` plus one trailing update ``U(p, j)`` per column
tile — wired with the same data dependencies as the DAG: ``F(p)`` needs
only the *first-tile* update of panel ``p - 1`` (look-ahead), each
update needs its panel's factors plus the previous panel's updates on
its columns.  The tasks run in the static order of their task graph
(:func:`emit_lookahead_layers`, compiled once per schedule), serially
or on a dependency-counting thread pool (:func:`_execute`); either way
every task performs identical arithmetic on identical operands, so the
two modes are **bit-identical** (tiling is keyed on ``workers`` alone,
never on ``threaded``).

Each panel is factored by TSQR's panel engine
(:func:`repro.core.tsqr.factor_panel`) on the panel schedule the
captured :class:`LookaheadSchedule` holds
(:func:`repro.core.tsqr.panel_schedule`, built once per plan), and its
trailing updates and Q applications replay the engine's apply plan
(:func:`repro.core.tsqr.apply_wy_plan`).  A run never captures a
schedule.  Every panel's arithmetic is therefore TSQR's: one panel (an
unset width on a tall matrix) is ``tsqr_qr`` bit for bit.

This is the one CAQR driver of the batched kernels: ``lookahead`` runs
it at any ``workers``, the default ``batched`` path at one worker, and
``auto`` on its fallback.  It runs on an ``(r, m, n)`` stack of
independent requests (:func:`factor_stack`), which is how
:class:`repro.serving.ServingPlan` coalesces requests, and returns the
one factor class, :class:`repro.core.caqr.CAQRFactors`.  The
``structured`` tree elimination is not supported here — that path runs
the serial engine of :mod:`repro.core.caqr`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.caqr import CAQRFactors, PanelFactor
from repro.core.dtypes import working_dtype
from repro.core.tsqr import (
    PanelSchedule, TSQRFactors, _plan_form_q, _WyPlan, apply_wy_plan, factor_panel,
    level0_rows, panel_schedule,
)
from repro.graph.highlevel import TaskGraph
from repro.graph.order import static_order
from repro.obs import tracer as _obs
from repro.runtime.policy import ExecutionPolicy

__all__ = [
    "LookaheadSchedule",
    "build_lookahead_schedule",
    "emit_lookahead_layers",
    "factor_stack",
    "form_q_columns",
    "form_q_stack",
    "run_lookahead_schedule",
]

_MIN_TILE = 16  # narrowest "rest" tile worth a task of its own


# ---------------------------------------------------------------------------
# Explicit Q ------------------------------------------------------------------
# ---------------------------------------------------------------------------


def form_q_columns(
    factors,
    workers: int | None = None,
    threaded: bool | None = None,
) -> np.ndarray:
    """Form the explicit thin Q, tiling its columns across a thread pool.

    Q columns are independent under ``apply_q`` (every update touches
    disjoint column slices), so the SORGQR-equivalent parallelizes
    embarrassingly.  Accepts :class:`~repro.core.caqr.CAQRFactors` or any
    factor object with ``m``/``n``/``R``/``apply_q`` (e.g.
    :class:`~repro.core.tsqr.TSQRFactors`, which is how the randomized
    range finder threads its Q formation).  As in
    :func:`run_lookahead_schedule`, ``workers`` alone fixes the tiling
    and ``threaded`` picks the engine, so the threaded result is
    bit-identical to the serial run of the same tiles (and matches the
    untiled ``form_q`` to roundoff — GEMM accumulation order differs
    with tile width).  ``workers=None`` uses the factors' worker count
    (1 if absent); 1 means plain ``form_q``.
    """
    if workers is None:
        workers = getattr(factors, "workers", 1)
    if threaded is None:
        threaded = workers > 1
    k = min(factors.m, factors.n)
    if workers <= 1 or k < 2 * _MIN_TILE:
        return factors.form_q()
    Q = np.zeros((factors.m, k), dtype=working_dtype(factors.R))
    np.fill_diagonal(Q, 1.0)
    panels = getattr(factors, "panels", None)
    # Build the apply plans serially up front: the tile applies run
    # concurrently and must only read them.
    for f in [p.factors for p in panels] if panels is not None else [factors]:
        if getattr(f, "batched", False):
            f._plan_for(np.dtype(Q.dtype))
    if panels is not None:
        # As in CAQRFactors.form_q: a panel skips the tile columns left
        # of its col_start (and tiles entirely left of it).
        def run(lo: int, hi: int) -> None:
            for p in reversed(panels):
                if p.col_start < hi:
                    p.factors.apply_q(Q[p.row_start :, max(lo, p.col_start) : hi])
    else:
        def run(lo: int, hi: int) -> None:
            factors.apply_q(Q[:, lo:hi])
    step = max(_MIN_TILE, -(-k // workers))
    bounds = [(lo, min(lo + step, k)) for lo in range(0, k, step)]
    if threaded:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(run, lo, hi) for lo, hi in bounds]:
                fut.result()
    else:
        for lo, hi in bounds:
            run(lo, hi)
    return Q


# ---------------------------------------------------------------------------
# The driver -----------------------------------------------------------------
# ---------------------------------------------------------------------------


def _col_tiles(lo: int, hi: int, first_w: int, workers: int) -> list[tuple[int, int]]:
    """Column tiles of one panel's trailing update.

    ``workers <= 1`` keeps the update whole (one lean full-width pass);
    otherwise the first tile is exactly the next panel's columns (the
    look-ahead edge) and the rest is split into ``~workers`` chunks of at
    least ``_MIN_TILE`` columns.  Depends only on ``workers`` so the
    threaded and serial engines execute identical tiles.
    """
    if workers <= 1:
        return [(lo, hi)]
    cut = min(lo + first_w, hi)
    tiles = [(lo, cut)]
    rest = hi - cut
    if rest > 0:
        step = max(_MIN_TILE, -(-rest // workers))
        tiles.extend((a, min(a + step, hi)) for a in range(cut, hi, step))
    return tiles


_POOLS: dict[int, tuple[int, ThreadPoolExecutor]] = {}
_POOLS_LOCK = threading.Lock()
_POOL_THREAD = threading.local()


def _mark_pool_thread() -> None:
    _POOL_THREAD.inside = True


def _shared_pool(workers: int) -> ThreadPoolExecutor | None:
    """The process's pool of ``workers`` threads, started once and reused.

    Starting and joining the threads of a fresh pool took ~1.6 ms of a
    ~27 ms threaded look-ahead run at 4096 x 128 (three spawns and three
    joins, with no task running).  ``None`` inside a pool thread: a
    nested run gets a pool of its own, so no task waits on the threads it
    occupies.  A forked child starts its own pool.
    """
    if getattr(_POOL_THREAD, "inside", False):
        return None
    pid = os.getpid()
    with _POOLS_LOCK:
        entry = _POOLS.get(workers)
        if entry is None or entry[0] != pid:
            entry = _POOLS[workers] = (pid, ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-graph-{workers}",
                initializer=_mark_pool_thread,
            ))
    return entry[1]


def _run_threaded(fns: list, deps: list, workers: int) -> None:
    """Dependency-counting execution of ``fns`` on a thread pool.

    A worker that finishes a task runs its first newly ready dependent
    itself and submits only the rest, so a dependency chain (factor ->
    first-tile update -> next factor) never waits for a pool hand-off.
    After a payload raises, the remaining tasks are drained without
    running, and the first exception is raised once the run is over.
    """
    n = len(fns)
    if n == 0:
        # A degenerate factorization (0 panels) has no tasks; waiting on
        # the completion event would block forever.
        return
    dependents: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, d_i in enumerate(deps):
        indegree[i] = len(d_i)
        for d in d_i:
            dependents[d].append(i)
    lock = threading.Lock()
    done = threading.Event()
    state = {"remaining": n, "error": None}

    def run(pool: ThreadPoolExecutor, i: int) -> None:
        while True:
            try:
                if state["error"] is None:
                    fns[i]()
            except BaseException as exc:  # propagate the first failure
                with lock:
                    if state["error"] is None:
                        state["error"] = exc
            ready: list[int] = []
            with lock:
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    done.set()
                for j in dependents[i]:
                    indegree[j] -= 1
                    if indegree[j] == 0:
                        ready.append(j)
            if not ready:
                return
            for j in ready[1:]:
                pool.submit(run, pool, j)
            i = ready[0]

    roots = [i for i in range(n) if indegree[i] == 0]

    def start(pool: ThreadPoolExecutor) -> None:
        for i in roots:
            pool.submit(run, pool, i)
        done.wait()

    pool = _shared_pool(workers)
    if pool is None:
        with ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_thread) as own:
            start(own)
    else:
        start(pool)
    if state["error"] is not None:
        raise state["error"]


def _execute(fns: list, deps: list, workers: int, threaded: bool) -> None:
    """Run the zero-argument ``fns``, listed in static order, whose
    ``deps[k]`` are positions in that list: serially in list order, or
    on the shared pool of ``workers`` threads."""
    if not threaded or workers <= 1:
        for fn in fns:
            fn()
        return
    _run_threaded(fns, deps, workers)


@dataclass(frozen=True)
class _TaskSpec:
    """One task of a captured schedule (closure-free, matrix-free)."""

    kind: str  # "factor" | "update"
    panel: int
    lo: int  # update column range; (0, 0) for factor tasks
    hi: int
    deps: tuple[int, ...]


@dataclass(frozen=True)
class LookaheadSchedule:
    """The shape-dependent half of a look-ahead factorization.

    Built once per ``(m, n, policy)`` by :func:`build_lookahead_schedule`
    (and cached inside a :class:`repro.runtime.plan.QRPlan`), then run on
    any conforming matrix by :func:`run_lookahead_schedule`.  ``panels``
    holds ``(col_start, width, row_start, block_rows, trailing)`` per
    panel; ``tasks`` is the dependency-wired task list; ``panel_width``
    is the effective width (the engine's resolution of an unset one);
    ``panel_schedules`` holds each panel's TSQR schedule, so a run never
    captures one.
    """

    m: int
    n: int
    policy: ExecutionPolicy
    panels: tuple[tuple[int, int, int, int, int], ...]
    tasks: tuple[_TaskSpec, ...]
    panel_width: int
    panel_schedules: tuple[PanelSchedule, ...] = field(default=(), repr=False, compare=False)

    @property
    def has_updates(self) -> bool:
        """Whether any task writes the working matrix (a trailing update)."""
        return any(t.kind == "update" for t in self.tasks)

    @cached_property
    def compiled_order(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The task graph's static order, compiled once per schedule.

        ``(order, deps)``: ``order[k]`` is the schedule index of the k-th
        task to issue and ``deps[k]`` the positions in ``order`` it waits
        on, derived from :func:`emit_lookahead_layers` once so a run only
        binds its payloads.
        """
        tg = emit_lookahead_layers(self)
        keys = static_order(tg)
        pos = {key: k for k, key in enumerate(keys)}
        order = tuple(tg.task(key).seq for key in keys)
        deps = tuple(tuple(pos[d] for d in tg.task(key).deps) for key in keys)
        return order, deps


def build_lookahead_schedule(m: int, n: int, policy: ExecutionPolicy) -> LookaheadSchedule:
    """Capture the panel partition and task DAG for one shape.

    Pure shape arithmetic — no matrix is touched, so the result is
    reusable across every matrix of the shape.  Tiling is keyed on
    ``policy.workers`` alone (never on the execution engine), which is
    what makes threaded and serial runs of one schedule bit-identical.
    """
    workers = policy.effective_workers
    k = min(m, n)
    width = policy.effective_panel_width(m, n)
    panels: list[tuple[int, int, int, int, int]] = []
    tasks: list[_TaskSpec] = []
    prev_updates: list[tuple[int, tuple[int, int]]] = []  # (task id, cols)
    for p, c0 in enumerate(range(0, k, width)):
        pw_p = min(width, k - c0)
        r0 = c0
        bh = level0_rows(policy.block_rows, pw_p)
        wt = n - (c0 + pw_p)
        panels.append((c0, pw_p, r0, bh, wt))

        if policy.lookahead_edge and prev_updates:
            f_deps = (prev_updates[0][0],)
        else:
            f_deps = tuple(t for t, _ in prev_updates)
        f_id = len(tasks)
        tasks.append(_TaskSpec(kind="factor", panel=p, lo=0, hi=0, deps=f_deps))

        updates: list[tuple[int, tuple[int, int]]] = []
        if wt > 0:
            next_w = min(width, max(k - (c0 + pw_p), 1))
            for lo, hi in _col_tiles(c0 + pw_p, n, next_w, workers):
                deps = (f_id,) + tuple(
                    t for t, (a, b) in prev_updates if a < hi and lo < b
                )
                u_id = len(tasks)
                tasks.append(_TaskSpec(kind="update", panel=p, lo=lo, hi=hi, deps=deps))
                updates.append((u_id, (lo, hi)))
        prev_updates = updates
    sched = LookaheadSchedule(
        m=m, n=n, policy=policy, panels=tuple(panels), tasks=tuple(tasks),
        panel_width=width,
        panel_schedules=tuple(
            panel_schedule(m - r0, pw_p, bh, policy.tree_shape)
            for _c0, pw_p, r0, bh, _wt in panels
        ),
    )
    sched.compiled_order  # compiled here, at plan time, not on the first run
    return sched


def emit_lookahead_layers(sched: LookaheadSchedule) -> TaskGraph:
    """Compile a captured :class:`LookaheadSchedule` into a task graph.

    Two layers: ``panel`` (the factor tasks, higher ordering priority —
    the look-ahead edge in annotation form) and ``trailing`` (the tiled
    updates).  Keys are ``("factor", p)`` / ``("update", p, lo, hi)``;
    dependencies are the schedule's own, translated from positional ids
    to keys.  The driver runs its own payloads in this graph's static
    order (:attr:`LookaheadSchedule.compiled_order`).
    """
    tg = TaskGraph(name=f"lookahead[{sched.m}x{sched.n}]")
    tg.add_layer("panel", priority=1)
    tg.add_layer("trailing", priority=0)
    keys: list = []
    for ts in sched.tasks:
        if ts.kind == "factor":
            layer, key = "panel", ("factor", ts.panel)
        else:
            layer, key = "trailing", ("update", ts.panel, ts.lo, ts.hi)
        tg.add_task(
            layer,
            key,
            deps=[keys[d] for d in ts.deps],
            panel=ts.panel,
            cols=(ts.lo, ts.hi),
        )
        keys.append(key)
    return tg


def factor_stack(
    sched: LookaheadSchedule, W: np.ndarray, threaded: bool | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, _WyPlan, list]]]:
    """Run a captured schedule on the ``(r, m, n)`` stack ``W``, in place.

    The driver: each factor task runs TSQR's panel engine on the panel
    columns of all ``r`` requests at once, and each update task applies
    the panel's plan to its column tile of all of them.  Every slice
    reaches the kernels with the strides it has alone
    (:func:`~repro.core.tsqr.factor_panel`,
    :func:`~repro.core.tsqr.apply_wy_plan`), so request ``i``'s result
    equals a run on ``W[i]`` alone bit for bit.  ``threaded`` picks the
    engine only — thread pool vs program-order loop over the *same*
    tasks — and defaults to ``workers > 1``.

    Returns the ``(r, min(m, n), n)`` Rs and, per panel, what
    :func:`~repro.core.tsqr.factor_panel` returned: its Rs, apply plan
    and tree nodes.
    """
    policy = sched.policy
    workers = policy.effective_workers
    if threaded is None:
        threaded = workers > 1
    m, n = sched.m, sched.n
    if W.shape[1:] != (m, n):
        raise ValueError(
            f"run_lookahead_schedule: matrix shape {W.shape[1:]} does not match "
            f"the scheduled shape ({m}, {n})"
        )
    out: list = [None] * len(sched.panels)
    payloads: list = []
    for ts in sched.tasks:
        c0, pw_p, r0, bh, _wt = sched.panels[ts.panel]
        if ts.kind == "factor":

            def fn(c0=c0, pw_p=pw_p, r0=r0, bh=bh, p=ts.panel):
                with _obs.span("factor", cat="factor", panel=p, rows=m - r0, block_rows=bh):
                    out[p] = factor_panel(sched.panel_schedules[p], W[:, r0:, c0 : c0 + pw_p])

        else:

            def fn(r0=r0, lo=ts.lo, hi=ts.hi, p=ts.panel):
                with _obs.span("update", cat="update", panel=p, lo=lo, hi=hi):
                    apply_wy_plan(out[p][1], W[:, r0:, lo:hi], transpose=True)

        payloads.append(fn)

    # Run the payloads in the schedule's compiled static order — serial
    # order and the thread pool execute the same tasks on the same
    # operands, so both are bit-identical.
    order, deps = sched.compiled_order
    _execute([payloads[i] for i in order], deps, workers, threaded)

    # Assemble R: the trailing updates left every super-diagonal entry in
    # W; panel diagonal blocks come from the panels' own R factors.
    with _obs.span("assemble_r", cat="host"):
        R = np.triu(W[:, : min(m, n), :])
        for (c0, pw_p, r0, _bh, _wt), (Rp, _plan, _nodes) in zip(sched.panels, out):
            R[:, r0 : r0 + pw_p, c0 : c0 + pw_p] = Rp[:, :pw_p, :]
    return R, out


def form_q_stack(sched: LookaheadSchedule, panels: list, r: int, dtype) -> np.ndarray:
    """The explicit thin Qs ``(r, m, min(m, n))`` of a :func:`factor_stack` run.

    :meth:`repro.core.caqr.CAQRFactors.form_q`'s rule on every request
    at once: one panel in TSQR's orgqr form
    (:func:`~repro.core.tsqr._plan_form_q`), more panels each applied
    only right of its ``col_start``.  ``panels`` is what
    :func:`factor_stack` returned for the ``r`` requests; request
    ``i``'s Q equals ``form_q`` of its factors bit for bit.
    """
    m, k = sched.m, min(sched.m, sched.n)
    if len(panels) == 1:
        return _plan_form_q(panels[0][1], m, k)
    Q = np.zeros((r, m, k), dtype=dtype)
    Q[:, np.arange(k), np.arange(k)] = 1.0
    for (c0, _pw, r0, _bh, _wt), (_R, plan, _nodes) in zip(reversed(sched.panels), reversed(panels)):
        apply_wy_plan(plan, Q[:, r0:, c0:], transpose=False)
    return Q


def run_lookahead_schedule(
    sched: LookaheadSchedule,
    A: np.ndarray,
    threaded: bool | None = None,
) -> CAQRFactors:
    """Run a captured schedule on one (already validated) matrix.

    :func:`factor_stack` on a stack of one.  Each panel of the returned
    :class:`~repro.core.caqr.CAQRFactors` holds its
    :class:`~repro.core.tsqr.TSQRFactors` as views of the engine's
    stacks.  ``threaded`` picks the engine only and defaults to
    ``workers > 1``; either engine produces bit-identical factors.
    """
    policy = sched.policy
    if sched.has_updates:
        with _obs.span("setup", cat="host"):
            W = A.copy()
    else:
        # Panel factors only read their columns, so with no trailing
        # update (one tall panel) nothing writes W: factor A in place.
        W = A
    R, out = factor_stack(sched, W[None], threaded)
    panels = [
        PanelFactor(
            col_start=c0, col_stop=c0 + pw_p, row_start=r0,
            factors=TSQRFactors(
                m=sched.m - r0, n=pw_p, tree=ps.tree, R=Rp[0], engine=(ps, plan, nodes)
            ),
        )
        for (c0, pw_p, r0, _bh, _wt), ps, (Rp, plan, nodes)
        in zip(sched.panels, sched.panel_schedules, out)
    ]
    return CAQRFactors(
        m=sched.m,
        n=sched.n,
        panel_width=sched.panel_width,
        block_rows=policy.block_rows,
        tree_shape=policy.tree_shape,
        panels=panels,
        R=R[0],
        workers=policy.effective_workers,
    )
