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
from .tsqr import TSQRFactors, apply_merges

__all__ = ["PanelFactor", "CAQRFactors", "MergedCAQRFactors", "caqr", "caqr_qr"]


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

    Every look-ahead path returns this class from the one CAQR driver
    (:func:`repro.graph.executor.run_lookahead_schedule`), whose panels'
    :class:`TSQRFactors` hold the apply plans it built.  Q is applied
    panel by panel through each panel's factors.

    ``form_q`` follows one rule.  With one panel it is the panel's own
    ``form_q``: LAPACK ``orgqr``'s form
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


@dataclass
class MergedCAQRFactors:
    """Implicit Q and explicit R of row blocks factored apart whose Rs
    are merged up a tree: the sharded and the streaming factors.

    That is TSQR on another tree (Demmel et al., arXiv 0809.2407): its
    leaves are whole row blocks with their own :class:`CAQRFactors`
    (``blocks``, each with its first row), and its merges are TSQR tree
    entries (:func:`~repro.core.tsqr.merge_rs`), one list per level
    (``levels``).  Q^T applies every block's local factors, then the
    levels in order; Q the reverse, in place on ``m`` rows.  The merged
    R always lands in rows ``[0, k)``, so ``form_q`` is
    ``apply_q([I_k; 0])``.
    """

    m: int
    n: int
    R: np.ndarray  # min(m, n) x n upper trapezoidal
    blocks: list[tuple[int, CAQRFactors]]
    levels: list[list[tuple]]

    def _apply(self, B: np.ndarray, transpose: bool) -> np.ndarray:
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        W = B[:, None] if B.ndim == 1 else B  # view: updates land in B
        if transpose:
            for start, f in self.blocks:
                f.apply_qt(W[start : start + f.m])
            apply_merges(self.levels, W, transpose=True)
        else:
            apply_merges(self.levels, W, transpose=False)
            for start, f in self.blocks:
                f.apply_q(W[start : start + f.m])
        return B

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        return self._apply(B, transpose=True)

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        return self._apply(B, transpose=False)

    def form_q(self, out: np.ndarray | None = None) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q, as
        ``apply_q([I_k; 0])``, in ``out`` when given (C-contiguous, Q's
        shape and dtype)."""
        Q = q_buffer(out, self.m, min(self.m, self.n), self.R.dtype, zeros=True)
        np.fill_diagonal(Q, 1.0)
        return self.apply_q(Q)


def caqr(A: np.ndarray, *, policy: ExecutionPolicy | None = None):
    """Factor a matrix with CAQR (Figure 3 / the host pseudocode of Figure 4).

    ``policy`` (an :class:`~repro.runtime.policy.ExecutionPolicy`, default
    ``ExecutionPolicy()``) names the execution path, panel geometry and
    guard behaviour.  The matrix is validated once here,
    then factored by a one-shot plan: ``caqr(A, policy=p)`` is exactly
    ``plan_qr(m, n, A.dtype, p).factor(A)``, so a reusable
    :func:`repro.runtime.plan.plan_qr` plan gives the same bits.

    Returns:
        The path's factors with the explicit upper-trapezoidal ``R``.
        Every factor object has ``R`` and ``form_q(out=None)``; the rest
        depends on the path (``k = min(m, n)``):

        * ``batched``, ``structured`` and ``lookahead``:
          :class:`CAQRFactors`; ``sharded``
          (:class:`~repro.distributed.sharded.ShardedCAQRFactors`) and
          ``streaming`` (:class:`~repro.streaming.qr.StreamingCAQRFactors`,
          a :class:`MergedCAQRFactors` each): their ``apply_qt`` and
          ``apply_q`` take an ``m``-row ``B`` and update it in place;
        * ``cholqr2``, ``cholqr2_mixed`` and ``auto``:
          :class:`~repro.runtime.cholqr.CholQRFactors`, which holds the
          explicit thin Q: ``apply_qt`` takes ``m`` rows and returns a
          new ``k``-row block, ``apply_q`` takes ``k`` rows and returns
          a new ``m``-row one.
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
