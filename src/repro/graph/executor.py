"""Numeric execution of the CAQR launch DAG — look-ahead CAQR.

This is the executor half of the launch-graph subsystem: the same
dependency structure that :mod:`repro.graph.dag` builds for the
simulator, run for real over the batched compact-WY kernels of
:mod:`repro.smallblas.wy`.  Two things distinguish it from the serial
``batched`` path's driver:

* **Task graph.**  The factorization is a list of tasks — one panel
  factor ``F(p)`` plus one trailing update ``U(p, j)`` per column tile —
  wired with the same data dependencies as the DAG: ``F(p)`` needs only
  the *first-tile* update of panel ``p - 1`` (look-ahead), each update
  needs its panel's factors plus the previous panel's updates on its
  columns.  The tasks run serially in program order or on a thread pool;
  either way every task performs identical arithmetic on identical
  operands, so the two modes are **bit-identical** (tiling is keyed on
  ``workers`` alone, never on ``threaded``).

* **Lean replay.**  The panel factorization keeps only what the apply
  plan needs: level-0 blocks are strided views of the panel, tree-level
  R stacks are zero-copy reshapes of a contiguous backing array instead
  of per-node gathers, no per-block/per-node factor objects are built,
  and the shape-dependent schedule (row maps, batch slicing) is computed
  once per ``(panel_height, width, block_rows, tree)`` and replayed from
  an LRU cache — the CUDA-Graphs capture/replay idiom, host-side.

Every slice (level-0 block, ragged tail, tree node) is factored by the
kernel TSQR and the serving coalescer share,
:func:`repro.smallblas.wy._factor_slices`: LAPACK ``geqrt`` for slices
of at least ``GEQRT_MIN_ELEMS`` elements, the ``geqrf`` gufunc plus
``larft`` below that, each returning its R and its compact-WY
``(V, T)``, ``V`` a view of LAPACK's packed output.  Numerically the
executor matches the ``batched`` path at the same panel width to
roundoff (operation *order* across independent tiles differs; an
unset width is one panel here and 16 there), and
matches itself exactly across ``threaded=True/False``.  The
``structured`` tree elimination is not supported here — use
:func:`repro.core.caqr.caqr` for that path.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.dtypes import as_float_array, working_dtype
from repro.core.tree import batch_level, build_tree
from repro.core.tsqr import (
    _plan_form_q, _tsqr_impl, _WyPlan, apply_wy_plan, level0_rows, row_blocks,
)
from repro.graph.highlevel import TaskGraph
from repro.graph.order import static_order
from repro.obs import tracer as _obs
from repro.runtime.policy import LOOKAHEAD, ExecutionPolicy
from repro.smallblas.wy import _factor_slices

__all__ = [
    "LookaheadCAQRFactors",
    "LookaheadSchedule",
    "build_lookahead_schedule",
    "emit_lookahead_layers",
    "form_q_columns",
    "run_lookahead_schedule",
    "run_task_graph",
]

_MIN_TILE = 16  # narrowest "rest" tile worth a task of its own


# ---------------------------------------------------------------------------
# Panel schedule capture (shape-dependent, cached) ---------------------------
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LevelBatch:
    """One same-shape batch of tree groups at one level.

    Attributes:
        g: number of groups in the batch.
        arity: stacked Rs per group (all ``height``-uniform).
        pos0: the batch's first member position in alive order — members
            occupy ``backing[pos0 : pos0 + g * arity]`` contiguously.
        idx: ``(g, arity * height)`` panel-row gather map for applies.
    """

    g: int
    arity: int
    pos0: int
    idx: np.ndarray


@dataclass(frozen=True)
class _PanelRecipe:
    """Everything shape-dependent about factoring one panel."""

    hp: int
    width: int
    bh: int
    nb: int
    l0_count: int
    l0_h: int
    ragged: bool
    tail_start: int
    tail_h: int
    levels: tuple[tuple[_LevelBatch, ...], ...]
    carried: tuple[int, ...]  # per level: alive entries riding along


_RECIPES: OrderedDict[tuple, _PanelRecipe | None] = OrderedDict()
_RECIPES_LOCK = threading.Lock()
_RECIPES_MAX = 64


def _build_recipe(hp: int, width: int, bh: int, tree_shape: str) -> _PanelRecipe | None:
    """Capture the panel schedule, or ``None`` if the shape needs the
    generic :func:`~repro.core.tsqr.tsqr` fallback (tiny ragged tail, or
    a tree whose level order is not its batch order)."""
    ranges = row_blocks(hp, bh)
    nb = len(ranges)
    tail_start, tail_stop = ranges[-1]
    tail_h = tail_stop - tail_start
    ragged = nb > 1 and tail_h != bh
    l0_count = nb - 1 if ragged else nb
    l0_h = bh if nb > 1 else hp
    if ragged and tail_h < width:
        # The tail R is shorter than the panel width: heights go ragged
        # through the whole tree.  Rare (only when the last block is
        # thinner than the panel) — not worth a lean path.
        return None
    tree = build_tree(nb, tree_shape)
    starts = np.arange(nb, dtype=np.intp) * bh
    alive = list(range(nb))
    levels: list[tuple[_LevelBatch, ...]] = []
    carried: list[int] = []
    for level in tree.levels:
        pos_of = {blk: p for p, blk in enumerate(alive)}
        batches: list[_LevelBatch] = []
        cursor = 0
        for arity, poss in batch_level(level).items():
            groups = [level[p] for p in poss]
            members = [i for grp in groups for i in grp]
            mpos = [pos_of[i] for i in members]
            if mpos != list(range(cursor, cursor + len(members))):
                return None  # batch not a contiguous alive slice
            st = starts[np.asarray(members, dtype=np.intp)]
            idx = (st[:, None] + np.arange(width, dtype=np.intp)).reshape(
                len(groups), arity * width
            )
            batches.append(_LevelBatch(g=len(groups), arity=arity, pos0=cursor, idx=idx))
            cursor += len(members)
        ride = alive[cursor:]
        eliminated = {i for grp in level for i in grp[1:]}
        next_alive = [grp[0] for grp in level] + ride
        if [i for i in alive if i not in eliminated] != next_alive:
            return None  # survivor order differs from concat order
        levels.append(tuple(batches))
        carried.append(len(ride))
        alive = next_alive
    return _PanelRecipe(
        hp=hp,
        width=width,
        bh=bh,
        nb=nb,
        l0_count=l0_count,
        l0_h=l0_h,
        ragged=ragged,
        tail_start=tail_start,
        tail_h=tail_h,
        levels=tuple(levels),
        carried=tuple(carried),
    )


def _recipe(hp: int, width: int, bh: int, tree_shape: str) -> _PanelRecipe | None:
    key = (hp, width, bh, tree_shape)
    with _RECIPES_LOCK:
        if key in _RECIPES:
            _RECIPES.move_to_end(key)
            return _RECIPES[key]
    rec = _build_recipe(hp, width, bh, tree_shape)
    with _RECIPES_LOCK:
        _RECIPES[key] = rec
        while len(_RECIPES) > _RECIPES_MAX:
            _RECIPES.popitem(last=False)
    return rec


# ---------------------------------------------------------------------------
# Panel factorization --------------------------------------------------------
# ---------------------------------------------------------------------------


@dataclass
class _PanelPlan:
    """One factored panel: its R and its compact-WY apply plan.

    The factor task fills both; the trailing updates and every later Q
    application replay the plan.
    """

    row_start: int
    col_start: int
    col_stop: int
    R: np.ndarray | None = None  # (width, width) upper triangular
    plan: _WyPlan | None = field(default=None, repr=False)

    def apply_qt(self, B: np.ndarray) -> None:
        apply_wy_plan(self.plan, B, transpose=True)

    def apply_q(self, B: np.ndarray) -> None:
        apply_wy_plan(self.plan, B, transpose=False)


def _factor_panel(pp: _PanelPlan, Wp: np.ndarray, bh: int, tree_shape: str) -> None:
    """Factor one panel (TSQR) into ``pp`` — the ``factor`` +
    ``factor_tree`` launches of the DAG, replayed from the cached recipe."""
    hp, width = Wp.shape
    rec = _recipe(hp, width, bh, tree_shape)
    if rec is None:
        f = _tsqr_impl(Wp, block_rows=bh, tree_shape=tree_shape, structured=False, batched=True)
        pp.R = f.R[:width, :]
        pp.plan = f._plan_for(Wp.dtype)
        return
    # Level 0: the uniform blocks are one strided view of the panel; only
    # their Rs are copied, into the backing slab the tree reads, and the
    # reflectors stay where LAPACK wrote them.
    if rec.nb == 1:
        stack = Wp[None, :, :]
    else:
        stack = Wp[: rec.l0_count * bh].reshape(rec.l0_count, bh, width)
    with _obs.span("panel.level0", cat="factor.level0", blocks=rec.nb, block_rows=rec.l0_h):
        V0, T0, R0, _ = _factor_slices(stack)
        backing = np.empty((rec.nb, width, width), dtype=Wp.dtype)
        backing[: rec.l0_count] = R0
        tail = []
        if rec.ragged:
            Vt, Tt, Rt, _ = _factor_slices(Wp[rec.tail_start :][None, :, :])
            backing[rec.nb - 1] = Rt[0]
            tail.append((rec.tail_start, rec.tail_h, Vt, Tt))
    # Tree levels: every stacked-R input is a zero-copy reshape of the
    # backing slab; the outputs become the next slab.
    levels = []
    for batches, n_ride in zip(rec.levels, rec.carried):
        entries = []
        outs = []
        used = 0
        with _obs.span("panel.tree", cat="factor.tree", batches=len(batches)):
            for lb in batches:
                src = backing[lb.pos0 : lb.pos0 + lb.g * lb.arity].reshape(
                    lb.g, lb.arity * width, width
                )
                Vl, Tl, Rt, _ = _factor_slices(src)
                entries.append(("wy", lb.idx, Vl, Tl))
                outs.append(Rt)
                used += lb.g * lb.arity
            if len(outs) == 1 and n_ride == 0:
                backing = outs[0]
            else:
                backing = np.concatenate(outs + ([backing[used:]] if n_ride else []))
        levels.append(entries)
    pp.R = backing[0]
    pp.plan = _WyPlan(
        dtype=np.dtype(Wp.dtype),
        l0_count=rec.l0_count,
        l0_h=rec.l0_h,
        l0_V=V0,
        l0_T=T0,
        l0_tail=tail,
        levels=levels,
    )


# ---------------------------------------------------------------------------
# The factor object ----------------------------------------------------------
# ---------------------------------------------------------------------------


@dataclass
class LookaheadCAQRFactors:
    """Implicit Q and explicit R of a look-ahead CAQR factorization.

    Duck-type compatible with :class:`repro.core.caqr.CAQRFactors`:
    ``apply_qt`` / ``apply_q`` / ``form_q`` and the explicit ``R``.
    Q applications run through the same compact-WY plans the trailing
    updates used.
    """

    m: int
    n: int
    panel_width: int  # effective (an unset request resolved by the engine)
    block_rows: int | None  # as requested; None is the host default
    tree_shape: str
    panels: list[_PanelPlan]
    R: np.ndarray  # min(m, n) x n upper trapezoidal
    workers: int = 1

    def _check(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        return B, (B[:, None] if B.ndim == 1 else B)

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        B, W = self._check(B)
        for p in self.panels:
            p.apply_qt(W[p.row_start :, :])
        return B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        B, W = self._check(B)
        for p in reversed(self.panels):
            p.apply_q(W[p.row_start :, :])
        return B

    def form_q(self) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q.

        One panel is TSQR of the whole matrix, so its Q is formed as
        TSQR forms it (:func:`~repro.core.tsqr._plan_form_q`, LAPACK
        ``orgqr``'s form on the BLAS that factored it): equal to
        ``tsqr_qr``'s Q bit for bit, and to ``apply_q(I)`` to roundoff.
        With more panels, panel ``p`` is applied only to the columns at
        or right of its ``col_start``: every column to its left is still
        an identity column, exactly zero in the rows ``p`` touches, so
        the result is bit-identical to ``apply_q(I)``.
        """
        k = min(self.m, self.n)
        if len(self.panels) == 1:
            return _plan_form_q(self.panels[0].plan, self.m, k)
        Q = np.zeros((self.m, k), dtype=working_dtype(self.R))
        np.fill_diagonal(Q, 1.0)
        for p in reversed(self.panels):
            p.apply_q(Q[p.row_start :, p.col_start :])
        return Q


def form_q_columns(
    factors,
    workers: int | None = None,
    threaded: bool | None = None,
) -> np.ndarray:
    """Form the explicit thin Q, tiling its columns across a thread pool.

    Q columns are independent under ``apply_q`` (every update touches
    disjoint column slices), so the SORGQR-equivalent parallelizes
    embarrassingly.  Accepts :class:`LookaheadCAQRFactors` or any factor
    object with ``m``/``n``/``R``/``apply_q`` (e.g.
    :class:`~repro.core.tsqr.TSQRFactors`, which is how the randomized
    range finder threads its Q formation).  As in
    :func:`run_lookahead_schedule`, ``workers`` alone fixes the tiling
    and ``threaded`` picks the engine, so the threaded result is bit-identical to the serial run of the same
    tiles (and matches the untiled ``form_q`` to roundoff — GEMM
    accumulation order differs with tile width).  ``workers=None`` uses
    the factors' worker count (1 if absent); 1 means plain ``form_q``.
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
    if panels is not None:
        # As in LookaheadCAQRFactors.form_q: a panel skips the tile
        # columns left of its col_start (and tiles entirely left of it).
        def run(lo: int, hi: int) -> None:
            for p in reversed(panels):
                if p.col_start < hi:
                    p.apply_q(Q[p.row_start :, max(lo, p.col_start) : hi])
    else:
        # Build the apply plan serially up front: the tile applies run
        # concurrently and must only read it.
        plan_for = getattr(factors, "_plan_for", None)
        if plan_for is not None and getattr(factors, "batched", False):
            plan_for(np.dtype(Q.dtype))
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


@dataclass
class _Task:
    fn: object
    deps: list[int]


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


def _run_threaded(tasks: list[_Task], workers: int) -> None:
    """Dependency-counting execution of ``tasks`` on a thread pool.

    A worker that finishes a task runs its first newly ready dependent
    itself and submits only the rest, so a dependency chain (factor ->
    first-tile update -> next factor) never waits for a pool hand-off.
    """
    n = len(tasks)
    if n == 0:
        # A degenerate factorization (0 panels) has no tasks; waiting on
        # the completion event would block forever.
        return
    dependents: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, t in enumerate(tasks):
        indegree[i] = len(t.deps)
        for d in t.deps:
            dependents[d].append(i)
    lock = threading.Lock()
    done = threading.Event()
    state = {"remaining": n, "error": None}

    def run(pool: ThreadPoolExecutor, i: int) -> None:
        while True:
            try:
                if state["error"] is None:
                    tasks[i].fn()
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
    """Run ``fns`` (in static order; ``None`` entries are skipped) whose
    ``deps`` are positions in that order: serially, or on the pool."""
    if not threaded or workers <= 1:
        for fn in fns:
            if fn is not None:
                fn()
        return
    _run_threaded(
        [_Task(fn=fn if fn is not None else (lambda: None), deps=d) for fn, d in zip(fns, deps)],
        workers,
    )


def run_task_graph(
    tg: TaskGraph,
    workers: int = 1,
    threaded: bool | None = None,
    instrument: bool = False,
) -> None:
    """Execute a bound :class:`TaskGraph` — the shared numeric engine.

    Tasks run in the graph's static order (:mod:`repro.graph.order`):
    serially when ``workers <= 1`` (or ``threaded=False``), else on the
    dependency-counting thread pool with roots seeded in static order.
    Dependencies are ordering constraints only — data flows through the
    producer's closures/bind state — so any topological execution is
    race-free and the two engines are bit-identical by construction.

    ``instrument=True`` wraps every task in an obs span named after its
    layer (producers whose closures don't span themselves get per-task
    attribution for free; the look-ahead driver passes ``False`` because
    its closures already do).  Tasks with ``fn=None`` (model-only
    placeholders) are skipped.
    """
    if threaded is None:
        threaded = workers > 1
    order = static_order(tg)

    def payload(key):
        t = tg.task(key)
        fn = t.fn
        if fn is None:
            return None
        if not instrument:
            return fn
        def run(t=t, fn=fn):
            with _obs.span(t.layer, cat=f"graph.{tg.name}", key=repr(t.key)):
                fn()
        return run

    pos = {key: i for i, key in enumerate(order)}
    _execute(
        [payload(key) for key in order],
        [[pos[d] for d in tg.task(key).deps] for key in order],
        workers,
        threaded,
    )


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
    is the effective width (the engine's resolution of an unset one).
    """

    m: int
    n: int
    policy: ExecutionPolicy
    panels: tuple[tuple[int, int, int, int, int], ...]
    tasks: tuple[_TaskSpec, ...]
    panel_width: int

    @property
    def has_updates(self) -> bool:
        """Whether any task writes the working matrix (a trailing update)."""
        return any(t.kind == "update" for t in self.tasks)

    @cached_property
    def compiled_order(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The task graph's static order, compiled once per schedule.

        ``(order, deps)``: ``order[k]`` is the schedule index of the k-th
        task to issue and ``deps[k]`` the positions in ``order`` it waits
        on — what :func:`run_task_graph` derives from
        :func:`emit_lookahead_layers` on every call, kept so a run only
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
    width = LOOKAHEAD.panel_width(policy, m, n)
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
    )
    sched.compiled_order  # compiled here, at plan time, not on the first run
    return sched


def emit_lookahead_layers(
    sched: LookaheadSchedule,
    bind: list | None = None,
) -> TaskGraph:
    """Compile a captured :class:`LookaheadSchedule` into a task graph.

    Two layers: ``panel`` (the factor tasks, higher ordering priority —
    the look-ahead edge in annotation form) and ``trailing`` (the tiled
    updates).  Keys are ``("factor", p)`` / ``("update", p, lo, hi)``;
    dependencies are the schedule's own, translated from positional ids
    to keys.  ``bind``, when given, is the per-task payload list in
    schedule order (as built by :func:`run_lookahead_schedule`); without
    it the graph is structural — same fingerprint, nothing runnable.
    """
    if bind is not None and len(bind) != len(sched.tasks):
        raise ValueError(
            f"bind has {len(bind)} payload(s) for {len(sched.tasks)} task(s)"
        )
    tg = TaskGraph(name=f"lookahead[{sched.m}x{sched.n}]")
    tg.add_layer("panel", priority=1)
    tg.add_layer("trailing", priority=0)
    keys: list = []
    for i, ts in enumerate(sched.tasks):
        if ts.kind == "factor":
            layer, key = "panel", ("factor", ts.panel)
        else:
            layer, key = "trailing", ("update", ts.panel, ts.lo, ts.hi)
        tg.add_task(
            layer,
            key,
            fn=bind[i] if bind is not None else None,
            deps=[keys[d] for d in ts.deps],
            panel=ts.panel,
            cols=(ts.lo, ts.hi),
        )
        keys.append(key)
    return tg


def run_lookahead_schedule(
    sched: LookaheadSchedule,
    A: np.ndarray,
    threaded: bool | None = None,
) -> LookaheadCAQRFactors:
    """Run a captured schedule on one (already validated) matrix.

    ``threaded`` picks the engine only — thread pool vs program-order
    loop over the *same* tasks — and defaults to ``workers > 1``; either
    engine produces bit-identical factors.
    """
    policy = sched.policy
    workers = policy.effective_workers
    if threaded is None:
        threaded = workers > 1
    m, n = sched.m, sched.n
    if A.shape != (m, n):
        raise ValueError(
            f"run_lookahead_schedule: matrix shape {A.shape} does not match "
            f"the scheduled shape ({m}, {n})"
        )
    k = min(m, n)
    if sched.has_updates:
        with _obs.span("setup", cat="host"):
            W = A.copy()
    else:
        # Panel factors only read their columns, so with no trailing
        # update (one tall panel) nothing writes W: factor A in place.
        W = A
    dt = np.dtype(working_dtype(W))
    tree_shape = policy.tree_shape

    panels = [
        _PanelPlan(row_start=r0, col_start=c0, col_stop=c0 + pw_p)
        for c0, pw_p, r0, _bh, _wt in sched.panels
    ]
    bind: list = []
    for ts in sched.tasks:
        c0, pw_p, r0, bh, _wt = sched.panels[ts.panel]
        pp = panels[ts.panel]
        if ts.kind == "factor":

            def fn(pp=pp, c0=c0, pw_p=pw_p, r0=r0, bh=bh, p=ts.panel):
                with _obs.span("factor", cat="factor", panel=p, rows=m - r0, block_rows=bh):
                    _factor_panel(pp, W[r0:, c0 : c0 + pw_p], bh, tree_shape)

        else:

            def fn(pp=pp, r0=r0, lo=ts.lo, hi=ts.hi, p=ts.panel):
                with _obs.span("update", cat="update", panel=p, lo=lo, hi=hi):
                    pp.apply_qt(W[r0:, lo:hi])

        bind.append(fn)

    # Run the schedule's compiled task graph on the shared engine, in its
    # static order — serial order and the thread pool execute the same
    # tasks on the same operands, so both are bit-identical.
    order, deps = sched.compiled_order
    _execute([bind[i] for i in order], deps, workers, threaded)

    # Assemble R: the trailing updates left every super-diagonal entry in
    # W; panel diagonal blocks come from the panels' own R factors (the
    # serial driver's zero-fill + write-back is skipped entirely).
    with _obs.span("assemble_r", cat="host"):
        R = np.triu(W[:k, :])
        for pp in panels:
            pw_p = pp.col_stop - pp.col_start
            R[pp.row_start : pp.row_start + pw_p, pp.col_start : pp.col_stop] = pp.R[:pw_p, :]
    return LookaheadCAQRFactors(
        m=m,
        n=n,
        panel_width=sched.panel_width,
        block_rows=policy.block_rows,
        tree_shape=tree_shape,
        panels=panels,
        R=R.astype(dt, copy=False),
        workers=workers,
    )
