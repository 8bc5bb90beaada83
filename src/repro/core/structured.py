"""Structured QR of stacked upper-triangular factors.

Figure 2(c) notes the stacked Rs can be eliminated "possibly exploiting
the sparsity pattern".  The dense ``factor_tree`` treats the ``q``
stacked ``n x n`` triangles as a dense ``qn x n`` block (``~2 q n^3``
flops); the structured elimination below exploits that block ``b``'s
column ``j`` is only nonzero in its first ``j+1`` rows, shrinking both
the reflector support and the trailing update to ``~(2/3) q n^3`` flops
— a ~3x arithmetic saving at tree nodes.

The factor object stores sparse reflectors (support indices + values)
and applies Q/Q^T to conformal stacked matrices.  The TSQR tree takes
the elimination as its merge kernel but keeps the dense compact-WY form
of every merge: :meth:`StructuredStackFactor.dense_reflectors` writes
the sparse reflectors out as a unit-lower ``V``, so this module is the
only one that knows the sparse format.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dtypes import as_float_array, working_dtype
from .householder import house

__all__ = ["StructuredStackFactor", "structured_stack_qr", "structured_tree_flops", "dense_tree_flops"]


@dataclass
class _SparseReflector:
    """One Householder reflector restricted to its nonzero support."""

    rows: np.ndarray  # global row indices into the stacked matrix
    v: np.ndarray  # reflector values on those rows (v[0] == 1 at the pivot)
    tau: float


@dataclass
class StructuredStackFactor:
    """Implicit Q of a structured stacked-triangle QR."""

    total_rows: int
    n: int
    heights: tuple[int, ...]
    reflectors: list[_SparseReflector]
    R: np.ndarray
    flops: float  # arithmetic actually performed

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """``B <- Q^T B`` in place for a stacked matrix with matching rows."""
        B = as_float_array(B)
        if B.shape[0] != self.total_rows:
            raise ValueError(f"B must have {self.total_rows} rows, got {B.shape[0]}")
        for r in self.reflectors:
            if r.tau == 0.0:
                continue
            sub = B[r.rows]
            w = sub.T @ r.v
            B[r.rows] = sub - r.tau * np.outer(r.v, w)
        return B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """``B <- Q B`` in place for a stacked matrix with matching rows."""
        B = as_float_array(B)
        if B.shape[0] != self.total_rows:
            raise ValueError(f"B must have {self.total_rows} rows, got {B.shape[0]}")
        for r in reversed(self.reflectors):
            if r.tau == 0.0:
                continue
            sub = B[r.rows]
            w = sub.T @ r.v
            B[r.rows] = sub - r.tau * np.outer(r.v, w)
        return B

    def dense_reflectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The reflectors as a dense ``(total_rows, k)`` ``V`` and their ``tau``.

        Reflector ``j`` pivots on stacked row ``j`` (``v[0] == 1``) and
        its support lies below that row, so ``V`` is unit lower
        trapezoidal: the compact-WY form ``Q = I - V T V^T`` with
        ``T = larft(V, tau)``.  Both arrays are in R's dtype.
        """
        dt = self.R.dtype
        V = np.zeros((self.total_rows, len(self.reflectors)), dtype=dt)
        for j, r in enumerate(self.reflectors):
            V[r.rows, j] = r.v
        return V, np.array([r.tau for r in self.reflectors], dtype=dt)


def _support_rows(j: int, heights: Sequence[int], offsets: Sequence[int]) -> np.ndarray:
    """Global rows that can be nonzero in column ``j`` at elimination time.

    The pivot is row ``j`` of the top block; each lower triangle ``b``
    contributes its rows ``0 .. min(j, h_b - 1)`` (an upper triangle's
    column ``j`` is nonzero only in its first ``j+1`` rows, and the
    elimination never fills below that within a block).
    """
    rows = [offsets[0] + j]
    for b in range(1, len(heights)):
        top = min(j + 1, heights[b])
        if top > 0:
            rows.extend(range(offsets[b], offsets[b] + top))
    return np.asarray(rows, dtype=np.intp)


def structured_stack_qr(rs: Sequence[np.ndarray]) -> StructuredStackFactor:
    """Factor a stack of upper-triangular/trapezoidal Rs, sparsity-aware.

    Args:
        rs: the gathered R factors; the first must have at least ``n``
            rows (it carries the pivots), later ones may be shorter
            trapezoids.

    Returns:
        :class:`StructuredStackFactor` whose ``R`` matches the dense
        elimination's up to column signs, at ~1/3 of the arithmetic.
    """
    if not rs:
        raise ValueError("structured_stack_qr needs at least one R")
    n = rs[0].shape[1]
    for r in rs:
        if r.ndim != 2 or r.shape[1] != n:
            raise ValueError("all stacked Rs must share the same column count")
    if rs[0].shape[0] < min(n, sum(r.shape[0] for r in rs)):
        raise ValueError("the first R must carry the pivot rows (height >= n)")
    dt = working_dtype(*rs)
    heights = tuple(r.shape[0] for r in rs)
    offsets = np.concatenate([[0], np.cumsum(heights)])[:-1]
    W = np.vstack([np.triu(np.asarray(r, dtype=dt)) for r in rs])
    total = W.shape[0]
    reflectors: list[_SparseReflector] = []
    flops = 0.0
    k = min(total, n)
    for j in range(k):
        rows = _support_rows(j, heights, offsets)
        col = W[rows, j]
        v, tau, beta = house(col)
        reflectors.append(_SparseReflector(rows=rows, v=v, tau=tau))
        W[rows[0], j] = beta
        W[rows[1:], j] = 0.0
        if tau != 0.0 and j + 1 < n:
            trailing = W[np.ix_(rows, np.arange(j + 1, n))]
            w = trailing.T @ v
            W[np.ix_(rows, np.arange(j + 1, n))] = trailing - tau * np.outer(v, w)
            flops += 4.0 * rows.size * (n - j - 1)
        flops += 3.0 * rows.size  # norm + scale of the reflector
    R = np.triu(W[:k, :n]) if heights[0] >= k else np.triu(W[:k])
    return StructuredStackFactor(
        total_rows=total, n=n, heights=heights, reflectors=reflectors, R=R, flops=flops
    )


def structured_tree_flops(arity: int, n: int) -> float:
    """Arithmetic of one structured tree elimination (q stacked n x n Rs)."""
    q = arity
    total = 0.0
    for j in range(n):
        support = 1 + (q - 1) * min(j + 1, n)
        total += 4.0 * support * (n - j - 1) + 3.0 * support
    return total


def dense_tree_flops(arity: int, n: int) -> float:
    """Arithmetic of the dense elimination of the same stack."""
    m = arity * n
    return 2.0 * m * n * n - 2.0 * n**3 / 3.0
