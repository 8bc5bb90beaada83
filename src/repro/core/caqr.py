"""Communication-Avoiding QR (CAQR) for general matrices — Section II-C.

The matrix is divided into a grid of small blocks.  Each column panel is
factored with TSQR, and the trailing matrix is updated by applying the
panel's implicit Q^T: the level-0 factors horizontally across whole block
rows (the ``apply_qt_h`` kernel) and the tree factors to the distributed
row pieces they touch (the ``apply_qt_tree`` kernel).  After each panel
the grid is "redrawn lower by a number of rows equal to the panel width"
(Section II-C), reflecting that the trailing matrix shrinks in both
dimensions.

This module is the numerics; :mod:`repro.caqr_gpu` drives the same
algorithm through the GPU simulator with per-kernel launch costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import tracer as _obs
from repro.runtime.plan import plan_qr
from repro.runtime.policy import ExecutionPolicy
from repro.verify.guards import validate_matrix

from .dtypes import as_float_array, q_buffer, working_dtype
from .tsqr import TSQRFactors, _tsqr_impl

__all__ = ["PanelFactor", "CAQRFactors", "caqr", "caqr_qr"]


@dataclass
class PanelFactor:
    """TSQR factors of one column panel, with its global position."""

    col_start: int
    col_stop: int
    row_start: int
    factors: TSQRFactors


@dataclass
class CAQRFactors:
    """Implicit Q and explicit R of a CAQR factorization.

    Every in-core path returns this class: the serial engine's panel
    loop, and the look-ahead driver, whose panels' :class:`TSQRFactors`
    are views of its own stacks.  Q is applied panel by panel through
    each panel's factors.

    ``form_q`` follows one rule.  With one panel it is the panel's own
    ``form_q``: on the batched paths LAPACK ``orgqr``'s form
    (:func:`~repro.core.tsqr._plan_form_q`), equal to ``apply_q(I)`` to
    roundoff only.  With more panels, panel ``p`` is applied only to the
    columns at or right of its ``col_start``: the columns to its left
    are identity columns, zero in every row ``p`` touches, so the result
    equals ``apply_q(I)`` to roundoff, but not bit for bit, because a
    GEMM's blocking depends on how many columns it is given.  A plan, a
    direct call and a serving stack run the same rule on the same
    operands, so they are bit-identical.
    """

    m: int
    n: int
    panel_width: int  # effective (an unset request resolved by the engine)
    block_rows: int | None  # as requested; None is the host default
    tree_shape: str
    panels: list[PanelFactor]
    R: np.ndarray  # min(m, n) x n upper trapezoidal

    def _check(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        return B, (B[:, None] if B.ndim == 1 else B)  # view: updates land in B

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        B, W = self._check(B)
        for p in self.panels:
            p.factors.apply_qt(W[p.row_start :, :])
        return B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        B, W = self._check(B)
        for p in reversed(self.panels):
            p.factors.apply_q(W[p.row_start :, :])
        return B

    def form_q(self, out: np.ndarray | None = None) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q (SORGQR).

        ``out`` (C-contiguous, Q's shape and dtype) receives Q with the
        bits a new array would get and is returned.
        """
        if len(self.panels) == 1:
            return self.panels[0].factors.form_q(out=out)
        Q = q_buffer(out, self.m, min(self.m, self.n), working_dtype(self.R), zeros=True)
        np.fill_diagonal(Q, 1.0)
        for p in reversed(self.panels):
            p.factors.apply_q(Q[p.row_start :, p.col_start :])
        return Q


def _caqr_serial(A: np.ndarray, policy: ExecutionPolicy) -> CAQRFactors:
    """The serial engine's panel loop on an *already validated* matrix.

    Run by :class:`repro.runtime.plan.QRPlan` for the reference paths
    (``seed``, ``seed_structured``) and ``structured`` only: every other
    path, the sharded ranks' and streaming chunks' local factors
    included, runs the look-ahead driver
    (:func:`repro.graph.executor.run_lookahead_schedule`), and
    ``tools/lint_layering.py`` fails on an import of this function
    anywhere but the engine table.  Each panel goes straight to
    :func:`~repro.core.tsqr._tsqr_impl`: the input was validated exactly
    once at the public entry point, so per-panel re-scans never happen.
    """
    m, n = A.shape
    k = min(m, n)
    with _obs.span("setup", cat="host"):
        W = A.copy()
    width = policy.effective_panel_width(m, n)
    panels: list[PanelFactor] = []
    for col_start in range(0, k, width):
        pw = min(width, k - col_start)
        row_start = col_start  # grid redrawn lower by the panel width
        panel_view = W[row_start:, col_start : col_start + pw]
        with _obs.span("factor", cat="factor", panel=col_start // width, rows=m - row_start):
            f = _tsqr_impl(
                panel_view,
                block_rows=policy.block_rows,
                tree_shape=policy.tree_shape,
                structured=policy.uses_structured,
                batched=policy.uses_batched,
            )
        # The trailing matrix update: apply Q^T of the panel across the
        # remaining columns (apply_qt_h + apply_qt_tree in the GPU code).
        trailing = W[row_start:, col_start + pw :]
        if trailing.size:
            with _obs.span("update", cat="update", panel=col_start // width, cols=n - col_start - pw):
                f.apply_qt(trailing)
        # Record the panel's R back into the working matrix so the final
        # R can be read off the top k rows (np.triu drops what lies below).
        W[row_start : row_start + f.R.shape[0], col_start : col_start + pw] = f.R
        panels.append(
            PanelFactor(col_start=col_start, col_stop=col_start + pw, row_start=row_start, factors=f)
        )
    with _obs.span("assemble_r", cat="host"):
        R = np.triu(W[:k, :])
    return CAQRFactors(
        m=m,
        n=n,
        panel_width=width,
        block_rows=policy.block_rows,
        tree_shape=policy.tree_shape,
        panels=panels,
        R=R,
    )


def caqr(A: np.ndarray, *, policy: ExecutionPolicy | None = None):
    """Factor a matrix with CAQR (Figure 3 / the host pseudocode of Figure 4).

    ``policy`` (an :class:`~repro.runtime.policy.ExecutionPolicy`, default
    ``ExecutionPolicy()``) names the execution path, panel geometry,
    worker count and guard behaviour.  The matrix is validated once here,
    then factored by a one-shot plan: ``caqr(A, policy=p)`` is exactly
    ``plan_qr(m, n, A.dtype, p).factor(A)``, so a reusable
    :func:`repro.runtime.plan.plan_qr` plan gives the same bits.

    Returns:
        The path's factors with the explicit upper-trapezoidal ``R``.
        Every factor object has ``R`` and ``form_q(out=None)``; the rest
        depends on the path (``k = min(m, n)``):

        * ``seed``, ``batched``, ``structured``, ``lookahead`` and
          ``seed_structured``: :class:`CAQRFactors`, whose ``apply_qt``
          and ``apply_q`` take an ``m``-row ``B`` and update it in place;
        * ``cholqr2``, ``cholqr2_mixed`` and ``auto``:
          :class:`~repro.runtime.cholqr.CholQRFactors`, which holds the
          explicit thin Q: ``apply_qt`` takes ``m`` rows and returns a
          new ``k``-row block, ``apply_q`` takes ``k`` rows and returns
          a new ``m``-row one;
        * ``sharded`` (:class:`~repro.distributed.sharded.ShardedCAQRFactors`)
          and ``streaming``
          (:class:`~repro.streaming.qr.StreamingCAQRFactors`): neither
          ``apply_qt`` nor ``apply_q``.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    with _obs.maybe_trace(policy.trace):
        A = validate_matrix(A, where="caqr", nonfinite=policy.nonfinite)
        m, n = A.shape
        with _obs.span("caqr", cat="entry", m=m, n=n, path=policy.path):
            return plan_qr(m, n, A.dtype, policy).factor(A, validated=True)


def caqr_qr(
    A: np.ndarray, *, policy: ExecutionPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: explicit thin ``(Q, R)`` via CAQR."""
    f = caqr(A, policy=policy)
    return f.form_q(), f.R
