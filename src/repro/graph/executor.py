"""Numeric execution of the CAQR launch DAG — look-ahead CAQR.

This is the executor half of the launch-graph subsystem: the same
dependency structure that :mod:`repro.graph.dag` builds for the
simulator, run for real over the batched compact-WY kernels of
:mod:`repro.smallblas.wy`.  Two things distinguish it from the serial
``caqr(batched=True)`` driver:

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
  plan needs: the packed QR output is consumed through strided views
  (no ``ascontiguousarray`` repack of the reflector stacks), tree-level
  R stacks are zero-copy reshapes of a contiguous backing array instead
  of per-node gathers, no per-block/per-node factor objects are built,
  and the shape-dependent schedule (row maps, batch slicing) is computed
  once per ``(panel_height, width, block_rows, tree)`` and replayed from
  an LRU cache — the CUDA-Graphs capture/replay idiom, host-side.
  Panels with no trailing matrix defer building their compact-WY
  ``(V, T)`` until a Q application actually needs them.

Numerically the executor matches ``caqr(batched=True)`` to roundoff
(the factor kernel is the same LAPACK ``geqrf``; only operation *order*
across independent tiles differs), and matches itself exactly across
``threaded=True/False``.  The ``structured`` tree elimination is not
supported here — use :func:`repro.core.caqr.caqr` for that path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.dtypes import as_float_array, working_dtype
from repro.core.tree import batch_level, build_tree
from repro.core.tsqr import _WyPlan, _tsqr_impl, apply_wy_plan, level0_rows, row_blocks
from repro.graph.highlevel import TaskGraph
from repro.graph.order import static_order
from repro.obs import tracer as _obs
from repro.runtime.policy import UNSET, ExecutionPolicy, resolve_executor_policy
from repro.smallblas.wy import extract_v, larft
from repro.verify.guards import validate_matrix

__all__ = [
    "LookaheadCAQRFactors",
    "LookaheadSchedule",
    "build_lookahead_schedule",
    "caqr_lookahead",
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
    low_mask: np.ndarray  # (width, width) strictly-lower boolean mask


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
        low_mask=~np.triu(np.ones((width, width), dtype=bool)),
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
    """One factored panel: its R, and a lazily-built apply plan.

    The factor task stores the raw packed QR outputs (``VR`` stacks as
    strided views plus ``tau``); the compact-WY ``(V, T)`` factors are
    assembled on first use — immediately for panels that have a trailing
    matrix, lazily (and lock-protected) for panels that do not.
    """

    row_start: int
    col_start: int
    col_stop: int
    hp: int
    R: np.ndarray | None = None  # (width, width) upper triangular
    _raw: tuple | None = field(default=None, repr=False)
    _fallback: object | None = field(default=None, repr=False)  # TSQRFactors
    _plan: _WyPlan | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def plan(self) -> _WyPlan:
        plan = self._plan
        if plan is None:
            with self._lock:
                plan = self._plan
                if plan is None:
                    plan = self._plan = self._build_plan()
                    self._raw = None  # raw stacks no longer needed
        return plan

    def _build_plan(self) -> _WyPlan:
        if self._fallback is not None:
            return self._fallback._plan_for(working_dtype(self.R))
        rec, VR0, tau0, tail_raw, levels_raw = self._raw
        V0 = extract_v(VR0)
        T0 = larft(V0, tau0)
        l0_tail = []
        if tail_raw is not None:
            VRt, taut = tail_raw
            Vt = extract_v(VRt)
            l0_tail.append((rec.tail_start, rec.tail_h, Vt, larft(Vt, taut)))
        levels = []
        for entries_raw in levels_raw:
            entries = []
            for idx, VRl, taul in entries_raw:
                Vl = extract_v(VRl)
                entries.append(("wy", idx, Vl, larft(Vl, taul)))
            levels.append(entries)
        return _WyPlan(
            dtype=np.dtype(V0.dtype),
            l0_count=rec.l0_count,
            l0_h=rec.l0_h,
            l0_V=V0,
            l0_T=T0,
            l0_tail=l0_tail,
            levels=levels,
        )

    def apply_qt(self, B: np.ndarray) -> None:
        apply_wy_plan(self.plan(), B, transpose=True)

    def apply_q(self, B: np.ndarray) -> None:
        apply_wy_plan(self.plan(), B, transpose=False)


def _factor_panel(
    pp: _PanelPlan, Wp: np.ndarray, bh: int, tree_shape: str, eager: bool
) -> None:
    """Factor one panel (TSQR) into ``pp`` — the ``factor`` +
    ``factor_tree`` launches of the DAG, replayed from the cached recipe."""
    hp, width = Wp.shape
    rec = _recipe(hp, width, bh, tree_shape)
    if rec is None:
        f = _tsqr_impl(Wp, block_rows=bh, tree_shape=tree_shape, structured=False, batched=True)
        pp._fallback = f
        pp.R = f.R[:width, :]
        if eager:
            pp.plan()
        return
    # Level 0: one batched geqrf over the uniform blocks, consumed as a
    # strided view — R rows are sliced out, reflectors stay packed.
    if rec.nb == 1:
        stack = Wp[None, :, :]
    else:
        stack = Wp[: rec.l0_count * bh].reshape(rec.l0_count, bh, width)
    with _obs.span("panel.level0", cat="factor.level0", blocks=rec.nb):
        h, tau0 = np.linalg.qr(stack, mode="raw")
        VR0 = h.transpose(0, 2, 1)  # (l0_count, l0_h, width) view
        dt = VR0.dtype
        backing = np.empty((rec.nb, width, width), dtype=dt)
        backing[: rec.l0_count] = VR0[:, :width, :]
        tail_raw = None
        if rec.ragged:
            ht, taut = np.linalg.qr(Wp[rec.tail_start :][None, :, :], mode="raw")
            VRt = ht.transpose(0, 2, 1)
            backing[rec.nb - 1] = VRt[0, :width, :]
            tail_raw = (VRt, taut)
        backing[:, rec.low_mask] = 0.0
    # Tree levels: every stacked-R input is a zero-copy reshape of the
    # backing slab; the outputs become the next slab.
    levels_raw = []
    for batches, n_ride in zip(rec.levels, rec.carried):
        entries_raw = []
        outs = []
        used = 0
        with _obs.span("panel.tree", cat="factor.tree", batches=len(batches)):
            for lb in batches:
                src = backing[lb.pos0 : lb.pos0 + lb.g * lb.arity].reshape(
                    lb.g, lb.arity * width, width
                )
                hh, taul = np.linalg.qr(src, mode="raw")
                VRl = hh.transpose(0, 2, 1)
                entries_raw.append((lb.idx, VRl, taul))
                Rt = VRl[:, :width, :].copy()
                Rt[:, rec.low_mask] = 0.0
                outs.append(Rt)
                used += lb.g * lb.arity
            if len(outs) == 1 and n_ride == 0:
                backing = outs[0]
            else:
                backing = np.concatenate(outs + ([backing[used:]] if n_ride else []))
        levels_raw.append(entries_raw)
    pp.R = backing[0]
    pp._raw = (rec, VR0, tau0, tail_raw, levels_raw)
    if eager:
        pp.plan()


# ---------------------------------------------------------------------------
# The factor object ----------------------------------------------------------
# ---------------------------------------------------------------------------


@dataclass
class LookaheadCAQRFactors:
    """Implicit Q and explicit R of a look-ahead CAQR factorization.

    Duck-type compatible with :class:`repro.core.caqr.CAQRFactors`:
    ``apply_qt`` / ``apply_q`` / ``form_q`` and the explicit ``R``.
    Q applications run through the same compact-WY plans the trailing
    updates used (built on demand for trailing-free panels).
    """

    m: int
    n: int
    panel_width: int
    block_rows: int
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
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q."""
        k = min(self.m, self.n)
        Q = np.zeros((self.m, k), dtype=working_dtype(self.R))
        np.fill_diagonal(Q, 1.0)
        return self.apply_q(Q)


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
    range finder threads its Q formation).  As in :func:`caqr_lookahead`,
    ``workers`` alone fixes the tiling and ``threaded`` picks the engine,
    so the threaded result is bit-identical to the serial run of the same
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
    # Build apply plans serially up front: the tile applies run
    # concurrently and must only read them.
    panels = getattr(factors, "panels", None)
    if panels is not None:
        for p in panels:
            p.plan()
        def run(lo: int, hi: int) -> None:
            for p in reversed(panels):
                p.apply_q(Q[p.row_start :, lo:hi])
    else:
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


def _run_threaded(tasks: list[_Task], workers: int) -> None:
    """Dependency-counting execution of ``tasks`` on a thread pool."""
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

    def submit(pool: ThreadPoolExecutor, i: int) -> None:
        pool.submit(run, pool, i)

    def run(pool: ThreadPoolExecutor, i: int) -> None:
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
        for j in ready:
            submit(pool, j)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        roots = [i for i in range(n) if indegree[i] == 0]
        for i in roots:
            submit(pool, i)
        done.wait()
    if state["error"] is not None:
        raise state["error"]


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

    if not threaded or workers <= 1:
        for key in order:
            fn = payload(key)
            if fn is not None:
                fn()
        return
    pos = {key: i for i, key in enumerate(order)}
    tasks = []
    for key in order:
        fn = payload(key)
        tasks.append(
            _Task(fn=fn if fn is not None else (lambda: None),
                  deps=[pos[d] for d in tg.task(key).deps])
        )
    _run_threaded(tasks, workers)


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
    panel; ``tasks`` is the dependency-wired task list.
    """

    m: int
    n: int
    policy: ExecutionPolicy
    panels: tuple[tuple[int, int, int, int, int], ...]
    tasks: tuple[_TaskSpec, ...]


def build_lookahead_schedule(m: int, n: int, policy: ExecutionPolicy) -> LookaheadSchedule:
    """Capture the panel partition and task DAG for one shape.

    Pure shape arithmetic — no matrix is touched, so the result is
    reusable across every matrix of the shape.  Tiling is keyed on
    ``policy.workers`` alone (never on the execution engine), which is
    what makes threaded and serial runs of one schedule bit-identical.
    """
    workers = policy.effective_workers
    k = min(m, n)
    panels: list[tuple[int, int, int, int, int]] = []
    tasks: list[_TaskSpec] = []
    prev_updates: list[tuple[int, tuple[int, int]]] = []  # (task id, cols)
    for p, c0 in enumerate(range(0, k, policy.panel_width)):
        pw_p = min(policy.panel_width, k - c0)
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
            next_w = min(policy.panel_width, max(k - (c0 + pw_p), 1))
            for lo, hi in _col_tiles(c0 + pw_p, n, next_w, workers):
                deps = (f_id,) + tuple(
                    t for t, (a, b) in prev_updates if a < hi and lo < b
                )
                u_id = len(tasks)
                tasks.append(_TaskSpec(kind="update", panel=p, lo=lo, hi=hi, deps=deps))
                updates.append((u_id, (lo, hi)))
        prev_updates = updates
    return LookaheadSchedule(
        m=m, n=n, policy=policy, panels=tuple(panels), tasks=tuple(tasks)
    )


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
    with _obs.span("setup", cat="host"):
        W = A.copy()
    dt = np.dtype(working_dtype(W))
    tree_shape = policy.tree_shape

    panels = [
        _PanelPlan(row_start=r0, col_start=c0, col_stop=c0 + pw_p, hp=m - r0)
        for c0, pw_p, r0, _bh, _wt in sched.panels
    ]
    bind: list = []
    for ts in sched.tasks:
        c0, pw_p, r0, bh, wt = sched.panels[ts.panel]
        pp = panels[ts.panel]
        if ts.kind == "factor":

            def fn(pp=pp, c0=c0, pw_p=pw_p, r0=r0, bh=bh, wt=wt, p=ts.panel):
                with _obs.span("factor", cat="factor", panel=p, rows=m - r0):
                    _factor_panel(pp, W[r0:, c0 : c0 + pw_p], bh, tree_shape, eager=wt > 0)

        else:

            def fn(pp=pp, r0=r0, lo=ts.lo, hi=ts.hi, p=ts.panel):
                with _obs.span("update", cat="update", panel=p, lo=lo, hi=hi):
                    pp.apply_qt(W[r0:, lo:hi])

        bind.append(fn)

    # Compile to the shared graph representation and run on the shared
    # engine — serial static order and the thread pool execute the same
    # tasks on the same operands, so both are bit-identical.
    tg = emit_lookahead_layers(sched, bind=bind)
    run_task_graph(tg, workers=workers, threaded=threaded and workers > 1)

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
        panel_width=policy.panel_width,
        block_rows=policy.block_rows,
        tree_shape=tree_shape,
        panels=panels,
        R=R.astype(dt, copy=False),
        workers=workers,
    )


def caqr_lookahead(
    A: np.ndarray,
    panel_width: int = UNSET,
    block_rows: int = UNSET,
    tree_shape: str = UNSET,
    workers: int | None = UNSET,
    threaded: bool | None = None,
    lookahead: bool = UNSET,
    nonfinite: str = UNSET,
    *,
    policy: ExecutionPolicy | None = None,
) -> LookaheadCAQRFactors:
    """Factor ``A`` with CAQR executed as a dependency graph.

    Prefer ``policy=`` (an :class:`~repro.runtime.policy.ExecutionPolicy`
    with ``path="lookahead"``); the loose kwargs are deprecation shims.
    ``threaded`` stays a live engine knob: it picks thread pool vs
    program-order loop over the same schedule (defaults to
    ``workers > 1``) and never changes the bits.

    Legacy kwargs (deprecated): ``workers`` — column tiles per trailing
    update / pool width; ``lookahead`` — the look-ahead dependency edge
    (``False`` restores the panel barrier); ``nonfinite`` — input guard
    policy; plus the panel geometry.

    Returns:
        :class:`LookaheadCAQRFactors` with the implicit Q and explicit R.
    """
    policy = resolve_executor_policy(
        "caqr_lookahead",
        policy,
        workers=workers,
        lookahead=lookahead,
        nonfinite=nonfinite,
        panel_width=panel_width,
        block_rows=block_rows,
        tree_shape=tree_shape,
    )
    with _obs.maybe_trace(policy.trace):
        A = validate_matrix(A, where="caqr_lookahead", nonfinite=policy.nonfinite)
        with _obs.span(
            "caqr_lookahead",
            cat="entry",
            m=A.shape[0],
            n=A.shape[1],
            workers=policy.effective_workers,
        ):
            sched = build_lookahead_schedule(A.shape[0], A.shape[1], policy)
            return run_lookahead_schedule(sched, A, threaded=threaded)
