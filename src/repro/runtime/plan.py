"""Reusable QR plans: shape-dependent work computed once, replayed per matrix.

The Robust-PCA window loop factors the *same* 110,592 x 100 shape once
per video chunk, and the TSQR/CAQR schedule (panel partition, reduction
trees, look-ahead task DAG, compact-WY scratch shapes) is a pure
function of ``(m, n, dtype, policy)``.  :func:`plan_qr` derives all of
it once; :meth:`QRPlan.execute` then runs each matrix with zero
re-planning and — because it drives the exact same code paths the
one-shot entry points use — bit-identical results to a direct
``caqr_qr(A, policy=...)`` call.

Heavy modules (:mod:`repro.core`, :mod:`repro.graph.executor`,
:mod:`repro.caqr_gpu`) are imported lazily inside functions: the policy
layer sits *below* them in the import graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.obs import tracer as _obs

from .policy import ExecutionPolicy

__all__ = ["PanelSpec", "QRPlan", "plan_qr"]


@dataclass(frozen=True)
class PanelSpec:
    """Shape-dependent facts about one column panel of the factorization."""

    col_start: int
    col_stop: int
    row_start: int
    height: int  # rows below the diagonal redraw (m - row_start)
    block_rows: int  # effective level-0 block height (tsqr.level0_rows)
    blocks: int  # level-0 row blocks
    tree_levels: int
    trailing_cols: int  # columns updated by this panel's Q^T

    @property
    def width(self) -> int:
        return self.col_stop - self.col_start


def _plan_dtype(dtype) -> np.dtype:
    """The working dtype a validated input of ``dtype`` would have."""
    dt = np.dtype(dtype)
    if dt.kind == "c":
        raise TypeError("plan_qr: complex dtypes are not supported")
    return dt if dt == np.dtype(np.float32) else np.dtype(np.float64)


def _panel_specs(m: int, n: int, policy: ExecutionPolicy) -> tuple[PanelSpec, ...]:
    from repro.core.tree import build_tree
    from repro.core.tsqr import level0_rows, row_blocks

    k = min(m, n)
    specs = []
    for c0 in range(0, k, policy.panel_width):
        pw_p = min(policy.panel_width, k - c0)
        r0 = c0  # the grid is redrawn lower by the panel width
        hp = m - r0
        bh = level0_rows(policy.block_rows, pw_p)
        nb = len(row_blocks(hp, bh))
        tree = build_tree(nb, policy.tree_shape)
        specs.append(
            PanelSpec(
                col_start=c0,
                col_stop=c0 + pw_p,
                row_start=r0,
                height=hp,
                block_rows=bh,
                blocks=nb,
                tree_levels=len(tree.levels),
                trailing_cols=n - (c0 + pw_p),
            )
        )
    return tuple(specs)


def _warm_recipes(schedule) -> tuple:
    """Capture (and pin) a look-ahead schedule's per-panel tree recipes,
    so the first execute on the tree replays them instead of capturing."""
    from repro.graph.executor import _recipe

    tree_shape = schedule.policy.tree_shape
    return tuple(
        _recipe(schedule.m - r0, w, bh, tree_shape)
        for _c0, w, r0, bh, _wt in schedule.panels
    )


def _wy_scratch_bytes(
    m: int, n: int, policy: ExecutionPolicy, panels: tuple[PanelSpec, ...], itemsize: int
) -> int:
    """Elements the compact-WY ``(V, T)`` factors of every panel occupy.

    Level 0 contributes ``blocks x (bh x w + w x w)``; each tree group of
    arity ``a`` contributes ``(a w) x w + w x w``.  This is the peak
    apply-plan footprint a server would pre-allocate for the shape.
    """
    from repro.core.tree import build_tree

    elems = 0
    for p in panels:
        w = p.width
        elems += p.blocks * (p.block_rows * w + w * w)
        tree = build_tree(p.blocks, policy.tree_shape)
        for level in tree.levels:
            for group in level:
                a = len(group)
                elems += a * w * w + w * w
    return elems * itemsize


class QRPlan:
    """A reusable factorization plan for one ``(m, n, dtype, policy)``.

    Create with :func:`plan_qr`.  ``execute(A)`` factors any matrix of
    the planned shape/dtype, bit-identical to the corresponding direct
    ``caqr_qr(A, policy=...)`` call; repeated executions skip all
    planning (panel schedule, look-ahead DAG construction, tree-recipe
    capture).  ``simulate()`` returns the modeled GPU cost of the same
    shape under ``policy.config`` / ``policy.device``.
    """

    def __init__(
        self,
        m: int,
        n: int,
        dtype: np.dtype,
        policy: ExecutionPolicy,
        panels: tuple[PanelSpec, ...],
        schedule=None,
        recipes: tuple = (),
        wy_scratch_bytes: int = 0,
    ) -> None:
        self.m = m
        self.n = n
        self.dtype = dtype
        self.policy = policy
        self.panels = panels
        self.wy_scratch_bytes = wy_scratch_bytes
        self._schedule = schedule
        self._recipes = recipes  # strong refs keep warmed recipes alive
        self._sim = None
        # CholeskyQR2 scratch (the mixed path's float32 Gram cast buffer)
        # is reused across executes but never across threads.
        self._cholqr_tls = threading.local() if policy.uses_cholqr else None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def __repr__(self) -> str:
        return (
            f"QRPlan({self.m}x{self.n}, {self.dtype}, path={self.policy.path!r}, "
            f"panels={len(self.panels)})"
        )

    # -- execution ---------------------------------------------------------

    def _prepare(self, A: np.ndarray, validated: bool) -> np.ndarray:
        from repro.verify.guards import validate_matrix

        if not validated:
            A = validate_matrix(A, where="QRPlan.execute", nonfinite=self.policy.nonfinite)
        else:
            A = np.asarray(A)
        if A.shape != (self.m, self.n):
            raise ValueError(
                f"QRPlan.execute: matrix shape {A.shape} does not match the "
                f"planned shape ({self.m}, {self.n})"
            )
        if A.dtype != self.dtype:
            raise ValueError(
                f"QRPlan.execute: matrix dtype {A.dtype} does not match the "
                f"planned dtype {self.dtype}"
            )
        return A

    def factor(self, A: np.ndarray, validated: bool = False):
        """Factor ``A`` under the plan; returns the implicit-Q factors.

        ``validated=True`` skips the guard layer entirely — for callers
        (the dispatcher) that already validated and normalized ``A``,
        making one scan per matrix the whole-pipeline total.
        """
        with _obs.maybe_trace(self.policy.trace):
            A = self._prepare(A, validated)
            with _obs.span(
                "plan.factor", cat="plan", m=self.m, n=self.n, path=self.policy.path
            ):
                if self.policy.path == "lookahead":
                    from repro.graph.executor import run_lookahead_schedule

                    return run_lookahead_schedule(self._schedule, A)
                if self.policy.uses_cholqr:
                    from repro.runtime.cholqr import run_cholqr

                    return run_cholqr(
                        A,
                        self.policy,
                        workspace=self._cholqr_workspace(),
                        schedule=self._schedule,
                    )
                if self.policy.path == "sharded":
                    from repro.distributed.sharded import run_sharded

                    return run_sharded(A, self.policy, schedule=self._schedule)
                if self.policy.path == "streaming":
                    from repro.streaming.qr import run_streaming_matrix

                    return run_streaming_matrix(A, self.policy, schedule=self._schedule)
                from repro.core.caqr import _caqr_serial

                return _caqr_serial(A, self.policy)

    def _cholqr_workspace(self):
        ws = getattr(self._cholqr_tls, "ws", None)
        if ws is None:
            from repro.core.cholesky_qr import CholQRWorkspace

            ws = CholQRWorkspace()
            self._cholqr_tls.ws = ws
        return ws

    def execute(self, A: np.ndarray, validated: bool = False):
        """Explicit thin ``(Q, R)`` of ``A`` under the plan."""
        f = self.factor(A, validated=validated)
        return f.form_q(), f.R

    # -- modeled cost ------------------------------------------------------

    def simulate(self, streams: int | None = None):
        """Modeled GPU cost of this shape (cached for the serial stream)."""
        if self.m < 1 or self.n < 1:
            raise ValueError("simulate: degenerate shapes have no modeled timeline")
        if self.policy.path == "streaming":
            raise ValueError(
                "simulate: the streaming path is out-of-core (no single "
                "modeled timeline); simulate the per-chunk shape "
                f"({self.policy.chunk_rows} x {self.n}) instead"
            )
        if self.policy.uses_cholqr:
            # O(1) launches on one stream: the ``streams`` knob has no
            # effect on the modeled CholeskyQR2 timeline.
            if self._sim is None:
                from repro.caqr_gpu import simulate_cholqr2

                self._sim = simulate_cholqr2(
                    self.m,
                    self.n,
                    self.policy.resolved_config(),
                    self.policy.resolved_device(),
                    mixed=self.policy.path == "cholqr2_mixed",
                    guard=self.policy.path == "auto",
                )
            return self._sim
        if self.policy.path == "sharded":
            # Per-device local CAQR + modeled reduction traffic; the
            # ``streams`` knob is per-device and does not apply here.
            if self._sim is None:
                from repro.caqr_gpu import simulate_sharded

                self._sim = simulate_sharded(
                    self.m,
                    self.n,
                    self.policy.resolved_config(),
                    self.policy.resolved_device(),
                    shards=self.policy.shards,
                    fanin=self.policy.effective_fanin,
                    interconnect=self.policy.resolved_interconnect(),
                )
            return self._sim
        if streams is not None:
            from repro.caqr_gpu import simulate_caqr

            return simulate_caqr(
                self.m,
                self.n,
                self.policy.resolved_config(),
                self.policy.resolved_device(),
                streams=streams,
            )
        if self._sim is None:
            from repro.caqr_gpu import simulate_caqr

            self._sim = simulate_caqr(
                self.m, self.n, self.policy.resolved_config(), self.policy.resolved_device()
            )
        return self._sim

    def task_graph(self):
        """The plan's :class:`~repro.graph.highlevel.TaskGraph` (structural).

        Compiled by the producer matching the plan's path: the captured
        look-ahead schedule, the prebuilt shard-reduction schedule, or
        the CAQR panel/tree/trailing layers for the serial strategies.
        The graph is unbound (``fn=None``) — it is the schedulable /
        fingerprintable shape of the plan, not a second execution engine
        (``factor`` stays the way to run a plan).  CholeskyQR2 paths are
        O(1) launch chains with no graph form.
        """
        if self.policy.uses_cholqr:
            raise ValueError(
                "task_graph: CholeskyQR2 paths are O(1) launch chains; "
                "there is no task graph to compile"
            )
        if self.policy.path == "lookahead":
            from repro.graph.executor import emit_lookahead_layers

            return emit_lookahead_layers(self._schedule)
        if self.policy.path == "sharded":
            from repro.distributed.sharded import emit_sharded_layers

            return emit_sharded_layers(self._schedule)
        if self.policy.path == "streaming":
            from repro.streaming.graphs import emit_streaming_layers

            return emit_streaming_layers(
                self.m, self.n, self.policy.chunk_rows, schedule=self._schedule
            )
        from repro.graph.dag import emit_caqr_layers

        return emit_caqr_layers(
            self.m,
            self.n,
            self.policy.resolved_config(),
            self.policy.resolved_device(),
            lookahead=self.policy.lookahead_edge,
        )

    def _level0_heights(self) -> tuple[int, ...]:
        """Effective level-0 block height of each Householder-tree panel."""
        sched = self._schedule
        if self.policy.path == "auto" and sched is not None:
            return tuple(bh for _c0, _w, _r0, bh, _wt in sched.panels)
        if self.policy.path == "sharded" and sched is not None and sched.rows:
            s0, e0 = sched.rows[0]
            return tuple(p.block_rows for p in _panel_specs(e0 - s0, self.n, self.policy))
        return tuple(p.block_rows for p in self.panels)

    def describe(self) -> str:
        """One human-readable block summarizing the plan."""
        p = self.policy
        heights = ", ".join(
            f"{h} x{len(list(run))}" for h, run in groupby(self._level0_heights())
        )
        scope = {"auto": " (tree fallback)", "sharded": " (tallest shard)",
                 "streaming": " (per chunk)"}.get(p.path, "")
        lines = [
            f"QR plan for {self.m} x {self.n} ({self.dtype})",
            f"  path         {p.path}"
            + (f" (workers={p.effective_workers})" if p.path == "lookahead" else "")
            + (
                f" (shards={p.shards}, fanin={p.effective_fanin})"
                if p.path == "sharded"
                else ""
            )
            + (f" (chunk_rows={p.chunk_rows})" if p.path == "streaming" else ""),
            f"  geometry     panel_width={p.panel_width} tree={p.tree_shape}",
            f"  block rows   {heights or 'none'}{scope if heights else ''}",
            f"  panels       {len(self.panels)}",
            f"  wy scratch   {self.wy_scratch_bytes / 1e6:.2f} MB",
        ]
        if self.m >= 1 and self.n >= 1 and p.path != "streaming":
            sim = self.simulate()
            lines.append(
                f"  modeled      {sim.seconds * 1e3:.2f} ms on "
                f"{p.resolved_device().name} ({sim.gflops:.1f} GFLOPS)"
            )
        return "\n".join(lines)


def plan_qr(
    m: int,
    n: int,
    dtype=np.float64,
    policy: ExecutionPolicy | None = None,
) -> QRPlan:
    """Build a reusable :class:`QRPlan` for an ``m x n`` factorization.

    Everything shape-dependent is computed here, once: the panel
    schedule, the per-panel reduction trees (captured into the
    executor's recipe cache for the look-ahead path), the look-ahead
    task DAG, and the compact-WY scratch footprint.  The policy is
    validated at construction, so ``plan.execute`` never re-resolves
    kwargs.
    """
    if m < 0 or n < 0:
        raise ValueError("matrix dimensions must be non-negative")
    policy = policy if policy is not None else ExecutionPolicy()
    with _obs.maybe_trace(policy.trace), _obs.span(
        "plan.build", cat="plan", m=m, n=n, path=policy.path
    ):
        return _plan_qr_impl(m, n, dtype, policy)


def _plan_qr_impl(m: int, n: int, dtype, policy: ExecutionPolicy) -> QRPlan:
    dt = _plan_dtype(dtype)
    if policy.uses_cholqr:
        # The cheap path has no panel/tree structure: its scratch is the
        # n x n Gram + triangular smalls (and the float32 Gram cast
        # buffer on the mixed path); "auto" additionally prebuilds the
        # look-ahead fallback schedule and warms its tree recipes so a
        # guarded execute never plans.
        k = min(m, n)
        scratch = 3 * k * k * dt.itemsize
        if policy.path == "cholqr2_mixed" and dt == np.dtype(np.float64):
            scratch += m * k * np.dtype(np.float32).itemsize
        schedule = None
        recipes: tuple = ()
        if policy.path == "auto" and m >= 1 and n >= 1:
            from repro.runtime.cholqr import _fallback_schedule

            schedule = _fallback_schedule(m, n, policy)
            recipes = _warm_recipes(schedule)
        return QRPlan(
            m=m,
            n=n,
            dtype=dt,
            policy=policy,
            panels=(),
            schedule=schedule,
            recipes=recipes,
            wy_scratch_bytes=scratch,
        )
    if policy.path == "sharded":
        # The shard row deal and fan-in reduction schedule are pure
        # functions of (m, n, shards, fanin): build them once here so
        # every execute replays the same tree (its fingerprint is what
        # tests/data/fingerprints.json pins).  Panel structure lives
        # per shard; the plan-level scratch is the widest shard's
        # compact-WY footprint times the rank count.
        from repro.distributed.sharded import build_shard_schedule

        schedule = build_shard_schedule(m, n, policy.shards, policy.effective_fanin)
        scratch = 0
        if schedule.rows:
            s0, e0 = schedule.rows[0]  # first shard is the tallest
            shard_panels = _panel_specs(e0 - s0, n, policy)
            scratch = schedule.shards * _wy_scratch_bytes(
                e0 - s0, n, policy, shard_panels, dt.itemsize
            )
        return QRPlan(
            m=m,
            n=n,
            dtype=dt,
            policy=policy,
            panels=(),
            schedule=schedule,
            recipes=(),
            wy_scratch_bytes=scratch,
        )
    if policy.path == "streaming":
        # The chunk row deal is a pure function of (m, chunk_rows); the
        # plan-level panel specs describe one full-height chunk (the
        # shape every steady-state chunk replays).  Scratch is the
        # out-of-core resident bound: one chunk's compact-WY footprint
        # plus the n x n carry and the (2n) x n merge stack — notably
        # *not* a function of m.
        from repro.streaming.qr import build_stream_schedule

        schedule = build_stream_schedule(m, n, policy.chunk_rows)
        ch = min(policy.chunk_rows, m) if m else policy.chunk_rows
        chunk_panels = _panel_specs(ch, n, policy) if ch and n else ()
        scratch = _wy_scratch_bytes(ch, n, policy, chunk_panels, dt.itemsize)
        scratch += 3 * min(m, n) * n * dt.itemsize
        return QRPlan(
            m=m,
            n=n,
            dtype=dt,
            policy=policy,
            panels=chunk_panels,
            schedule=schedule,
            recipes=(),
            wy_scratch_bytes=scratch,
        )
    panels = _panel_specs(m, n, policy)
    scratch = _wy_scratch_bytes(m, n, policy, panels, dt.itemsize)
    schedule = None
    recipes: tuple = ()
    if policy.path == "lookahead":
        from repro.graph.executor import build_lookahead_schedule

        schedule = build_lookahead_schedule(m, n, policy)
        recipes = _warm_recipes(schedule)
    return QRPlan(
        m=m,
        n=n,
        dtype=dt,
        policy=policy,
        panels=panels,
        schedule=schedule,
        recipes=recipes,
        wy_scratch_bytes=scratch,
    )
