"""Reusable QR plans: shape-dependent work computed once, replayed per matrix.

The Robust-PCA window loop factors the *same* 110,592 x 100 shape once
per video chunk, and the TSQR/CAQR schedule (panel partition, reduction
trees, look-ahead task DAG, compact-WY scratch shapes) is a pure
function of ``(m, n, dtype, policy)``.  :func:`plan_qr` derives all of
it once; :meth:`QRPlan.execute` then runs each matrix with zero
re-planning.  A direct ``caqr(A, policy=...)`` call *is* a plan built and
factored once, so plan and direct results are bit-identical by
construction.  What a plan does for its path is read from the engine
table (:data:`repro.runtime.policy.PATHS`).

Heavy modules (:mod:`repro.core`, :mod:`repro.graph.executor`,
:mod:`repro.caqr_gpu`) are imported lazily inside functions: the policy
layer sits *below* them in the import graph.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
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


def _panel_schedule(height: int, width: int, policy: ExecutionPolicy):
    """The TSQR panel schedule a ``height x width`` panel runs under ``policy``."""
    from repro.core.tsqr import level0_rows, panel_schedule

    return panel_schedule(height, width, level0_rows(policy.block_rows, width), policy.tree_shape)


def _panel_specs(m: int, n: int, policy: ExecutionPolicy) -> tuple[PanelSpec, ...]:
    k = min(m, n)
    pw = policy.effective_panel_width(m, n)
    specs = []
    for c0 in range(0, k, pw):
        pw_p = min(pw, k - c0)
        r0 = c0  # the grid is redrawn lower by the panel width
        sched = _panel_schedule(m - r0, pw_p, policy)
        specs.append(
            PanelSpec(
                col_start=c0,
                col_stop=c0 + pw_p,
                row_start=r0,
                height=m - r0,
                block_rows=sched.block_rows,
                blocks=len(sched.ranges),
                tree_levels=len(sched.levels),
                trailing_cols=n - (c0 + pw_p),
            )
        )
    return tuple(specs)


def _wy_scratch_bytes(
    policy: ExecutionPolicy, panels: tuple[PanelSpec, ...], itemsize: int
) -> int:
    """Elements the compact-WY ``(V, T)`` factors of every panel occupy.

    Level 0 contributes ``blocks x (bh x w + w x w)``; each tree group of
    arity ``a`` contributes ``(a w) x w + w x w``.  This is the peak
    apply-plan footprint a server would pre-allocate for the shape.
    """
    elems = 0
    for p in panels:
        w = p.width
        elems += p.blocks * (p.block_rows * w + w * w)
        for batches in _panel_schedule(p.height, w, policy).levels:
            for b in batches:
                elems += len(b.positions) * (len(b.heights) + 1) * w * w
    return elems * itemsize


class QRPlan:
    """A reusable factorization plan for one ``(m, n, dtype, policy)``.

    Create with :func:`plan_qr`.  ``execute(A)`` factors any matrix of
    the planned shape/dtype, bit-identical to the corresponding direct
    ``caqr_qr(A, policy=...)`` call; repeated executions skip all
    planning (panel partition, look-ahead DAG construction, TSQR panel
    schedules).  ``simulate()`` returns the modeled GPU cost of the same
    shape under ``policy.config`` / ``policy.device``.  ``panels`` and
    ``wy_scratch_bytes`` describe the plan and are computed on first
    read, so a direct call never pays for them.
    """

    def __init__(self, m: int, n: int, dtype: np.dtype, policy: ExecutionPolicy) -> None:
        self.m = m
        self.n = n
        self.dtype = dtype
        self.policy = policy
        self._engine = policy.engine
        self._sim = None
        # CholeskyQR2 scratch (the mixed path's float32 Gram cast buffer)
        # is reused across executes but never across threads.
        self._tls = threading.local()
        self._schedule = self._engine.build(self)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @cached_property
    def panels(self) -> tuple[PanelSpec, ...]:
        """Shape facts of each Householder-tree panel (one chunk's for streaming)."""
        return self._engine.panels(self)

    @cached_property
    def wy_scratch_bytes(self) -> int:
        """Bytes of the compact-WY (or Gram) scratch a server would pre-allocate."""
        return self._engine.scratch_bytes(self)

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
        (``caqr``, the dispatcher) that already validated and normalized
        ``A``, making one scan per matrix the whole-pipeline total.
        """
        return self._factor(A, validated, None)[0]

    def _factor(self, A: np.ndarray, validated: bool, q_out: np.ndarray | None,
                form: bool = False):
        """Factor ``A`` with Q's buffer ``q_out``; returns the factors and
        the buffer.  ``form`` (``execute``: Q is formed next) allocates the
        buffer, once the guard scan is done, for an engine that factors
        in it."""
        with _obs.maybe_trace(self.policy.trace):
            A = self._prepare(A, validated)
            k = min(self.m, self.n)
            if q_out is not None:
                from repro.core.dtypes import q_buffer

                q_buffer(q_out, self.m, k, self.dtype)
                if np.shares_memory(q_out, A):
                    raise ValueError("QRPlan.execute: out overlaps A")
            elif form and self._engine.factors_in_q(self):
                q_out = np.empty((self.m, k), dtype=self.dtype)
            with _obs.span(
                "plan.factor", cat="plan", m=self.m, n=self.n, path=self.policy.path
            ):
                return self._engine.factor(self, A, q_out), q_out

    def _cholqr_workspace(self):
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            from repro.core.cholesky_qr import CholQRWorkspace

            ws = CholQRWorkspace()
            self._tls.ws = ws
        return ws

    def execute(self, A: np.ndarray, validated: bool = False, out: np.ndarray | None = None):
        """Explicit thin ``(Q, R)`` of ``A`` under the plan.

        ``out=None`` allocates Q.  Otherwise Q is formed in the caller's
        ``out`` — a writeable C-contiguous ``(m, min(m, n))`` array of
        the plan's dtype that does not overlap ``A`` (``ValueError``
        otherwise) — and ``out`` is returned as Q, bit-identical to the
        allocating call on every path.

        Engines that work in Q's buffer while they factor get it, ``out``
        or one allocated after the guard scan: a one-panel look-ahead
        factorization (``batched``, ``lookahead`` and ``auto``'s tree
        fallback on a tall matrix) factors its level-0 reflectors there
        and forms Q over them, as LAPACK ``orgqr`` does, and the
        CholeskyQR2 paths run their working matrix there.  So neither
        holds a second ``m x k`` array.  With ``out`` on a tall matrix,
        a look-ahead factorization with trailing updates keeps its
        working copy of ``A`` in ``out`` too.  A CholeskyQR2 refusal can
        leave scratch in ``out``, which ``auto``'s tree fallback then
        overwrites.  Every other engine forms Q after factoring; its
        reflectors are the factorization's own and are freed before
        this returns.
        """
        f, Q = self._factor(A, validated, out, form=True)
        return f.form_q(out=Q), f.R

    # -- modeled cost ------------------------------------------------------

    def simulate(self, streams: int | None = None):
        """Modeled GPU cost of this shape (cached for the serial stream)."""
        if self.m < 1 or self.n < 1:
            raise ValueError("simulate: degenerate shapes have no modeled timeline")
        p = self.policy
        args = (self.m, self.n, p, p.resolved_config(), p.resolved_device())
        if streams is not None:
            return self._engine.simulate(*args, streams=streams)
        if self._sim is None:
            self._sim = self._engine.simulate(*args)
        return self._sim

    def task_graph(self):
        """The plan's :class:`~repro.graph.highlevel.TaskGraph` (structural).

        Compiled by the producer matching the plan's engine: the captured
        look-ahead schedule, the prebuilt shard-reduction schedule or the
        streaming chunk pipeline.  The graph is structural — the
        schedulable / fingerprintable shape of the plan, not a second
        execution engine (``factor`` is the way to run a plan).
        CholeskyQR2 paths are O(1) launch chains with no graph form.
        """
        return self._engine.task_graph(self)

    def describe(self) -> str:
        """One human-readable block summarizing the plan."""
        p = self.policy
        heights, scope = self._engine.level0(self)
        runs = ", ".join(f"{h} x{len(list(run))}" for h, run in groupby(heights))
        lines = [
            f"QR plan for {self.m} x {self.n} ({self.dtype})",
            f"  path         {p.path}{self._engine.detail(p)}",
            f"  geometry     panel_width={p.effective_panel_width(self.m, self.n)} "
            f"tree={p.tree_shape}",
            f"  block rows   {runs or 'none'}{scope if runs else ''}",
            f"  panels       {len(self.panels)}",
            f"  wy scratch   {self.wy_scratch_bytes / 1e6:.2f} MB",
        ]
        if self.m >= 1 and self.n >= 1 and self._engine.modeled:
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

    Everything shape-dependent that execution needs is computed here,
    once, by the policy's engine: the per-panel TSQR schedules (held by
    the look-ahead schedule, so an execute never captures one), the
    look-ahead task DAG, the shard or chunk row deal.  The
    policy is validated at construction, so ``plan.execute`` never
    re-validates it.
    """
    if m < 0 or n < 0:
        raise ValueError("matrix dimensions must be non-negative")
    policy = policy if policy is not None else ExecutionPolicy()
    with _obs.maybe_trace(policy.trace), _obs.span(
        "plan.build", cat="plan", m=m, n=n, path=policy.path
    ):
        return QRPlan(m, n, _plan_dtype(dtype), policy)
