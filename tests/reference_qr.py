"""The per-node reference QR: the test oracle.

TSQR as Figure 2 draws it, one Householder factor per level-0 row block
and per tree node, applied node by node (per-block loops, ``np.vstack``
gathers and BLAS2 reflector sweeps), and the CAQR panel loop of Section
II-C over it.  The library runs one TSQR strategy, the batched panel
engine of :mod:`repro.core.tsqr`, on one CAQR driver
(:func:`repro.graph.executor.run_lookahead_schedule`); the tests check
it against this independent implementation, and
``benchmarks/bench_realtime.py`` times it for its ``*_seed`` rows.

The factors are per-node records (:class:`LevelZeroFactor`,
:class:`TreeFactor`) in LAPACK's packed layout; the library holds the
same reflectors only as its apply plan's stacks.

Usage: ``tsqr(A, block_rows=64)``, ``caqr(A, panel_width=16)``, and the
``(Q, R)`` forms ``tsqr_qr`` / ``caqr_qr``.  Each validates its input as
the library's entry points do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.caqr import CAQRFactors, PanelFactor
from repro.core.dtypes import as_float_array, q_buffer, working_dtype
from repro.core.householder import geqr2, orm2r
from repro.core.structured import StructuredStackFactor, structured_stack_qr
from repro.core.tree import TreeSchedule, build_tree
from repro.core.tsqr import level0_rows, row_blocks
from repro.runtime.policy import PAPER_PANEL_WIDTH
from repro.smallblas.batched import batched_apply_blocked, batched_geqr2
from repro.verify.guards import validate_matrix

__all__ = [
    "LevelZeroFactor", "ReferenceTSQRFactors", "TreeFactor", "caqr", "caqr_qr", "tsqr", "tsqr_qr",
]


@dataclass
class LevelZeroFactor:
    """Householder factor of one level-0 row block, in LAPACK's packed
    layout: the reflectors below the diagonal, R on and above it."""

    rows: tuple[int, int]  # [start, stop) within the panel
    packed: np.ndarray
    tau: np.ndarray

    @property
    def r_height(self) -> int:
        """Rows of the upper-trapezoidal R this block passes up the tree."""
        return min(self.packed.shape[0], self.packed.shape[1])


@dataclass
class TreeFactor:
    """Householder factor of one stacked-R elimination group: a dense
    packed factor (``packed``, ``tau``) or a structured one."""

    group: tuple[int, ...]  # member level-0 block indices (first survives)
    heights: tuple[int, ...]  # R rows contributed by each member
    packed: np.ndarray | None = None
    tau: np.ndarray | None = None
    structured: StructuredStackFactor | None = None


def _apply_tree_factor(tf: TreeFactor, stacked: np.ndarray, transpose: bool) -> np.ndarray:
    if tf.structured is not None:
        return tf.structured.apply_qt(stacked) if transpose else tf.structured.apply_q(stacked)
    return orm2r(tf.packed, tf.tau, stacked, transpose=transpose)


class ReferenceTSQRFactors:
    """Implicit Q of a per-node TSQR factorization.

    ``blocks`` (one factor per level-0 row block, LAPACK's packed layout)
    and ``tree_factors`` (one list per tree level) are applied node by
    node; ``form_q`` applies Q to the identity, so it equals
    ``apply_q(I)`` bit for bit.
    """

    def __init__(
        self,
        m: int,
        n: int,
        tree: TreeSchedule,
        R: np.ndarray,
        blocks: list[LevelZeroFactor],
        tree_factors: list[list[TreeFactor]],
    ) -> None:
        self.m = m
        self.n = n
        self.tree = tree
        self.R = R  # final min(m, n) x n upper-triangular factor
        self.blocks = blocks
        self.tree_factors = tree_factors
        self._l0_ref: dict = {}

    def _level0_ref(self, dt: np.dtype):
        """Dtype-normalized stacked level-0 factors, cached per dtype."""
        key = np.dtype(dt)
        ent = self._l0_ref.get(key)
        if ent is None:
            # Only the last row block can be shorter than the first.
            h = self.blocks[0].rows[1] - self.blocks[0].rows[0] if self.blocks else 0
            count = sum(b.rows[1] - b.rows[0] == h for b in self.blocks)
            if count > 1:
                VRs = np.stack([self.blocks[i].packed for i in range(count)])
                taus = np.stack([self.blocks[i].tau for i in range(count)])
                if VRs.dtype != key:
                    VRs = VRs.astype(key)
                    taus = taus.astype(key)
                ent = (count, h, np.ascontiguousarray(VRs), np.ascontiguousarray(taus))
            else:
                ent = (0, h, None, None)
            self._l0_ref[key] = ent
        return ent

    def _apply_level0(self, B: np.ndarray, transpose: bool) -> None:
        """Level-0 application, batched over the uniform block prefix."""
        count, h, VRs, taus = self._level0_ref(B.dtype)
        if count:
            seg = B[: count * h]
            stacked = np.ascontiguousarray(seg).reshape(count, h, B.shape[1])
            batched_apply_blocked(VRs, taus, stacked, transpose=transpose)
            seg[:] = stacked.reshape(count * h, B.shape[1])
        for blk in self.blocks[count:]:
            s, e = blk.rows
            orm2r(blk.packed, blk.tau, B[s:e], transpose=transpose)

    def _gather(self, B: np.ndarray, tf: TreeFactor) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Collect the distributed row pieces a tree factor touches.

        This mirrors ``apply_qt_tree``: "collect the distributed components
        of the trailing matrix to be updated" (Section IV-D.4).
        """
        pieces = []
        ranges = []
        for idx, h in zip(tf.group, tf.heights):
            start = self.blocks[idx].rows[0]
            ranges.append((start, start + h))
            pieces.append(B[start : start + h])
        return np.vstack(pieces), ranges

    @staticmethod
    def _scatter(B: np.ndarray, stacked: np.ndarray, ranges: list[tuple[int, int]]) -> None:
        pos = 0
        for start, stop in ranges:
            h = stop - start
            B[start:stop] = stacked[pos : pos + h]
            pos += h

    def _rows(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        return B, (B[:, None] if B.ndim == 1 else B)  # view: updates land in B

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        B, W = self._rows(B)
        # Level 0: independent per-block applications (apply_qt_h).
        self._apply_level0(W, transpose=True)
        # Tree levels, bottom-up (apply_qt_tree).
        for level_factors in self.tree_factors:
            for tf in level_factors:
                stacked, ranges = self._gather(W, tf)
                _apply_tree_factor(tf, stacked, transpose=True)
                self._scatter(W, stacked, ranges)
        return B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        B, W = self._rows(B)
        for level_factors in reversed(self.tree_factors):
            for tf in level_factors:
                stacked, ranges = self._gather(W, tf)
                _apply_tree_factor(tf, stacked, transpose=False)
                self._scatter(W, stacked, ranges)
        self._apply_level0(W, transpose=False)
        return B

    def form_q(self, out: np.ndarray | None = None) -> np.ndarray:
        """The explicit thin ``m x min(m, n)`` Q, as ``apply_q(I)``."""
        Q = q_buffer(out, self.m, min(self.m, self.n), working_dtype(self.R), zeros=True)
        np.fill_diagonal(Q, 1.0)
        return self.apply_q(Q)


def _factor(
    A: np.ndarray,
    m: int,
    n: int,
    block_rows: int,
    ranges: list[tuple[int, int]],
    tree: TreeSchedule,
    structured: bool,
) -> ReferenceTSQRFactors:
    """The per-node factorization of a nonempty, validated ``A``."""
    # Level 0: factor every row block independently.  Full-height blocks
    # are factored through the batched kernel (one "thread block" per
    # small QR, vectorized across the batch — Section I's many-small-QRs
    # observation); only a ragged last block falls back to the scalar path.
    blocks = []
    current_r: dict[int, np.ndarray] = {}
    n_full = sum(1 for (s, e) in ranges if e - s == block_rows)
    if n_full > 1 and m >= block_rows:
        stack = np.ascontiguousarray(A[: n_full * block_rows]).reshape(n_full, block_rows, n)
        VRb, taub = batched_geqr2(stack)
    else:
        n_full = 0
        VRb = taub = None
    for i, (s, e) in enumerate(ranges):
        if i < n_full:
            VR, tau = VRb[i], taub[i]
        else:
            VR, tau = geqr2(A[s:e])
        blk = LevelZeroFactor(rows=(s, e), packed=VR, tau=tau)
        blocks.append(blk)
        current_r[i] = np.triu(VR[: blk.r_height, :])

    # Tree reduction: stack surviving Rs and factor the stacks.
    tree_factors: list[list[TreeFactor]] = []
    for level in tree.levels:
        level_factors = []
        for group in level:
            heights = tuple(current_r[i].shape[0] for i in group)
            if structured:
                sf = structured_stack_qr([current_r[i] for i in group])
                tf = TreeFactor(group=group, heights=heights, structured=sf)
                new_r = sf.R
            else:
                stacked = np.vstack([current_r[i] for i in group])
                VR, tau = geqr2(stacked)
                tf = TreeFactor(group=group, heights=heights, packed=VR, tau=tau)
                new_r = np.triu(VR[: min(stacked.shape[0], n), :])
            level_factors.append(tf)
            survivor = group[0]
            current_r[survivor] = new_r
            for dead in group[1:]:
                del current_r[dead]
        tree_factors.append(level_factors)

    (survivor_idx,) = list(current_r)
    R = current_r[survivor_idx]
    # Pad R to min(m, n) rows in the degenerate case of very short matrices.
    k = min(m, n)
    if R.shape[0] < k:
        R = np.vstack([R, np.zeros((k - R.shape[0], n), dtype=R.dtype)])
    return ReferenceTSQRFactors(
        m=m, n=n, blocks=blocks, tree=tree, tree_factors=tree_factors, R=R[:k]
    )


def _tsqr(
    A: np.ndarray, block_rows: int | None, tree_shape: str, structured: bool
) -> ReferenceTSQRFactors:
    """TSQR of a validated ``A``, on the library's level-0 rule."""
    m, n = A.shape
    if m == 0 or n == 0:
        # No reflectors: Q is the identity and R is empty, in
        # np.linalg.qr's reduced shapes.
        return ReferenceTSQRFactors(
            m=m, n=n, blocks=[], tree=build_tree(0, tree_shape), tree_factors=[],
            R=np.zeros((min(m, n), n), dtype=working_dtype(A)),
        )
    block_rows = level0_rows(block_rows, n)
    ranges = row_blocks(m, block_rows)
    return _factor(A, m, n, block_rows, ranges, build_tree(len(ranges), tree_shape), structured)


def tsqr(
    A: np.ndarray,
    block_rows: int | None = None,
    tree_shape: str = "quad",
    structured: bool = False,
) -> ReferenceTSQRFactors:
    """Per-node TSQR of ``A`` (the library's ``tsqr`` geometry)."""
    A = validate_matrix(A, where="reference tsqr")
    return _tsqr(A, block_rows, tree_shape, structured)


def tsqr_qr(A: np.ndarray, **geometry) -> tuple[np.ndarray, np.ndarray]:
    """Explicit thin ``(Q, R)`` of :func:`tsqr`."""
    f = tsqr(A, **geometry)
    return f.form_q(), f.R


def caqr(
    A: np.ndarray,
    panel_width: int = PAPER_PANEL_WIDTH,
    block_rows: int | None = None,
    tree_shape: str = "quad",
    structured: bool = False,
) -> CAQRFactors:
    """The CAQR panel loop over per-node TSQR panels.

    Each panel of ``panel_width`` columns is factored with TSQR, its
    Q^T applied to the trailing columns (``apply_qt_h`` +
    ``apply_qt_tree`` in the GPU code), and its R written back into the
    working copy, whose top ``min(m, n)`` rows are R.
    """
    A = validate_matrix(A, where="reference caqr")
    m, n = A.shape
    k = min(m, n)
    W = A.copy()
    panels: list[PanelFactor] = []
    for col_start in range(0, k, panel_width):
        pw = min(panel_width, k - col_start)
        row_start = col_start  # grid redrawn lower by the panel width
        panel_view = W[row_start:, col_start : col_start + pw]
        f = _tsqr(panel_view, block_rows, tree_shape, structured)
        # The trailing matrix update: apply Q^T of the panel across the
        # remaining columns.
        trailing = W[row_start:, col_start + pw :]
        if trailing.size:
            f.apply_qt(trailing)
        # Record the panel's R back into the working matrix so the final
        # R can be read off the top k rows (np.triu drops what lies below).
        W[row_start : row_start + f.R.shape[0], col_start : col_start + pw] = f.R
        panels.append(PanelFactor(
            col_start=col_start, col_stop=col_start + pw, row_start=row_start, factors=f
        ))
    return CAQRFactors(
        m=m,
        n=n,
        panel_width=panel_width,
        block_rows=block_rows,
        tree_shape=tree_shape,
        panels=panels,
        R=np.triu(W[:k, :]),
    )


def caqr_qr(A: np.ndarray, **geometry) -> tuple[np.ndarray, np.ndarray]:
    """Explicit thin ``(Q, R)`` of :func:`caqr`."""
    f = caqr(A, **geometry)
    return f.form_q(), f.R
