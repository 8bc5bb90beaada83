"""Numeric execution of the CAQR launch DAG — look-ahead CAQR.

The same dependency structure that :mod:`repro.graph.dag` builds for
the simulator, run for real over the batched compact-WY kernels of
:mod:`repro.smallblas.wy`.  The factorization is a list of tasks — one
panel factor ``F(p)`` plus, when columns remain to its right, one
trailing update ``U(p)`` of all of them — wired with the DAG's data
dependencies: ``F(p)`` needs ``U(p - 1)``, and ``U(p)`` needs ``F(p)``
and ``U(p - 1)``.  That is a chain, so the driver runs the tasks in list
order, which is the static order of their task graph
(:func:`emit_lookahead_layers`).  The driver is single-threaded: the
host's parallelism is OpenBLAS's, inside each task's LAPACK and GEMM
calls.  Overlapping panel factors with trailing updates across GPU
streams is modeled, not run, by :mod:`repro.graph.overlap`.

Each panel is factored by TSQR's panel engine
(:func:`repro.core.tsqr.factor_panel`) on the panel schedule the
captured :class:`LookaheadSchedule` holds
(:func:`repro.core.tsqr.panel_schedule`, built once per plan), and its
trailing updates and Q applications replay the engine's apply plan
(:func:`repro.core.tsqr.apply_wy_plan`).  A run never captures a
schedule.  Every panel's arithmetic is therefore TSQR's: one panel (an
unset width on a tall matrix) is ``tsqr_qr`` bit for bit.

This is the one CAQR driver: the default ``batched`` path,
``structured``, ``lookahead`` and ``auto``'s fallback run it, and so do
the sharded ranks' and streaming chunks' local factors.  It runs on an
``(r, m, n)`` stack of independent requests (:func:`factor_stack`),
which is how :class:`repro.serving.ServingPlan` coalesces requests, and
returns the one factor class, :class:`repro.core.caqr.CAQRFactors`.
``structured`` merges the tree's stacked triangles with Figure 2(c)'s
structured elimination, which factors one request at a time, so that
path is not coalescable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.caqr import CAQRFactors, PanelFactor
from repro.core.dtypes import q_buffer
from repro.core.tsqr import (
    PanelSchedule, TSQRFactors, _plan_form_q, _WyPlan, apply_wy_plan, factor_panel,
    level0_rows, panel_schedule,
)
from repro.graph.highlevel import TaskGraph
from repro.obs import tracer as _obs
from repro.runtime.policy import ExecutionPolicy

__all__ = [
    "LookaheadSchedule",
    "build_lookahead_schedule",
    "emit_lookahead_layers",
    "factor_stack",
    "form_q_stack",
    "run_lookahead_schedule",
]


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


def build_lookahead_schedule(m: int, n: int, policy: ExecutionPolicy) -> LookaheadSchedule:
    """Capture the panel partition and task DAG for one shape.

    Pure shape arithmetic — no matrix is touched, so the result is
    reusable across every matrix of the shape.
    """
    k = min(m, n)
    width = policy.effective_panel_width(m, n)
    panels: list[tuple[int, int, int, int, int]] = []
    tasks: list[_TaskSpec] = []
    prev_update: tuple[int, ...] = ()  # the previous panel's update task, if any
    for p, c0 in enumerate(range(0, k, width)):
        pw_p = min(width, k - c0)
        r0 = c0
        bh = level0_rows(policy.block_rows, pw_p)
        wt = n - (c0 + pw_p)
        panels.append((c0, pw_p, r0, bh, wt))
        f_id = len(tasks)
        tasks.append(_TaskSpec(kind="factor", panel=p, lo=0, hi=0, deps=prev_update))
        if wt > 0:
            tasks.append(_TaskSpec(
                kind="update", panel=p, lo=c0 + pw_p, hi=n, deps=(f_id,) + prev_update
            ))
            prev_update = (f_id + 1,)
        else:
            prev_update = ()
    return LookaheadSchedule(
        m=m, n=n, policy=policy, panels=tuple(panels), tasks=tuple(tasks),
        panel_width=width,
        panel_schedules=tuple(
            panel_schedule(m - r0, pw_p, bh, policy.tree_shape)
            for _c0, pw_p, r0, bh, _wt in panels
        ),
    )


def emit_lookahead_layers(sched: LookaheadSchedule) -> TaskGraph:
    """Compile a captured :class:`LookaheadSchedule` into a task graph.

    Two layers: ``panel`` (the factor tasks, higher ordering priority —
    the look-ahead edge in annotation form) and ``trailing`` (the
    updates).  Keys are ``("factor", p)`` / ``("update", p, lo, hi)``;
    dependencies are the schedule's own, translated from positional ids
    to keys.  The graph's static order is the schedule's task order,
    which is the order the driver runs.
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
    sched: LookaheadSchedule, W: np.ndarray, home: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, _WyPlan]]]:
    """Run a captured schedule on the ``(r, m, n)`` stack ``W``, in place.

    The driver: each factor task runs TSQR's panel engine on the panel
    columns of all ``r`` requests at once, and each update task applies
    the panel's plan to its trailing columns of all of them.  Every slice
    reaches the kernels with the strides it has alone
    (:func:`~repro.core.tsqr.factor_panel`,
    :func:`~repro.core.tsqr.apply_wy_plan`), so request ``i``'s result
    equals a run on ``W[i]`` alone bit for bit.

    Returns the ``(r, min(m, n), n)`` Rs and, per panel, what
    :func:`~repro.core.tsqr.factor_panel` returned: its Rs and apply
    plan.  ``home`` (one panel of one request) is Q's buffer, which that
    panel factors its level-0 reflectors in.
    """
    m, n = sched.m, sched.n
    if W.shape[1:] != (m, n):
        raise ValueError(
            f"run_lookahead_schedule: matrix shape {W.shape[1:]} does not match "
            f"the scheduled shape ({m}, {n})"
        )
    out: list = [None] * len(sched.panels)
    for ts in sched.tasks:
        p = ts.panel
        c0, pw_p, r0, bh, _wt = sched.panels[p]
        if ts.kind == "factor":
            with _obs.span("factor", cat="factor", panel=p, rows=m - r0, block_rows=bh):
                out[p] = factor_panel(
                    sched.panel_schedules[p], W[:, r0:, c0 : c0 + pw_p],
                    structured=sched.policy.uses_structured, home=home,
                )
        else:
            with _obs.span("update", cat="update", panel=p, lo=ts.lo, hi=ts.hi):
                apply_wy_plan(out[p][1], W[:, r0:, ts.lo : ts.hi], transpose=True)

    # Assemble R: the trailing updates left every super-diagonal entry in
    # W; panel diagonal blocks come from the panels' own R factors.
    with _obs.span("assemble_r", cat="host"):
        R = np.triu(W[:, : min(m, n), :])
        for (c0, pw_p, r0, _bh, _wt), (Rp, _plan) in zip(sched.panels, out):
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
    for (c0, _pw, r0, _bh, _wt), (_R, plan) in zip(reversed(sched.panels), reversed(panels)):
        apply_wy_plan(plan, Q[:, r0:, c0:], transpose=False)
    return Q


def run_lookahead_schedule(
    sched: LookaheadSchedule, A: np.ndarray, q_out: np.ndarray | None = None
) -> CAQRFactors:
    """Run a captured schedule on one (already validated) matrix.

    :func:`factor_stack` on a stack of one.  Each panel of the returned
    :class:`~repro.core.caqr.CAQRFactors` holds its
    :class:`~repro.core.tsqr.TSQRFactors`: the panel's R and the apply
    plan the engine built.

    ``q_out`` is the buffer the caller forms Q in next
    (``form_q(out=q_out)``): a C-contiguous ``(m, min(m, n))`` array of
    ``A``'s dtype that does not overlap ``A``.  One panel factors its
    level-0 reflectors in it, so Q is formed over them and the factors
    are spent after that (:class:`~repro.core.tsqr.TSQRFactors`).  With
    trailing updates on a tall matrix it holds the working copy of ``A``
    instead: R is read from it before ``form_q`` zero-fills it.
    """
    policy = sched.policy
    if q_out is not None:
        q_buffer(q_out, sched.m, min(sched.m, sched.n), A.dtype)
    home = None
    if sched.has_updates:
        with _obs.span("setup", cat="host"):
            if q_out is not None and q_out.shape == A.shape:
                W = q_out
                np.copyto(W, A)
            else:
                W = A.copy()
    else:
        # Panel factors only read their columns, so with no trailing
        # update (one tall panel) nothing writes W: factor A in place.
        W, home = A, q_out
    R, out = factor_stack(sched, W[None], home=home)
    panels = [
        PanelFactor(
            col_start=c0, col_stop=c0 + pw_p, row_start=r0,
            factors=TSQRFactors(m=sched.m - r0, n=pw_p, tree=ps.tree, R=Rp[0], plan=plan),
        )
        for (c0, pw_p, r0, _bh, _wt), ps, (Rp, plan)
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
    )
