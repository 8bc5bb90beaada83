"""Tall-Skinny QR (TSQR) — Section II-B of the paper.

The tall matrix is divided vertically into small row blocks; each block is
factored independently (the paper's ``factor`` kernel), and the resulting
R factors are eliminated up a reduction tree (the ``factor_tree`` kernel).
The Q factor is left *implicit* as the collection of per-block and
per-tree-node Householder factors (the "series of small Us" of Figure 2),
from which Q or Q^T can be applied, or the explicit thin Q formed.

Two numeric execution strategies coexist:

``batched=True`` (default)
    The whole hot path is vectorized.  Level 0 is factored as one padded
    ``(blocks, block_rows, n)`` batch (a short last block is zero-padded —
    exact, since Householder reflectors never touch all-zero pad rows);
    every tree level is factored with one blocked batched QR per
    heights-signature, stacking all nodes of the level.  Q applications
    run through a precomputed :class:`_WyPlan`: fancy-index gather /
    scatter row maps plus cached compact-WY ``(V, T)`` factors, so each
    level of the tree is three batched GEMMs (``C -= V (T' (V' C))``)
    instead of a Python loop of per-reflector rank-1 updates.

``batched=False``
    The seed per-node reference path, kept verbatim: per-block loops,
    ``np.vstack`` gathers and BLAS2 reflector sweeps.  It is the
    correctness oracle for the property tests and the baseline the
    real-time benchmark measures speedups against.

This module is the pure-numerics implementation; the GPU-simulated
execution (launch costs, timing) reuses these factor objects through
:mod:`repro.caqr_gpu` — the simulator timeline depends only on shapes,
so both strategies produce the identical launch stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dtypes import as_float_array, working_dtype
from .householder import geqr2, orm2r
from repro.obs import tracer as _obs
from repro.runtime.policy import UNSET, ExecutionPolicy, resolve_policy
from repro.smallblas.batched import batched_apply_blocked, batched_geqr2
from repro.smallblas.wy import apply_wy, geqr2_blocked, wy_factors
from .structured import StructuredStackFactor, structured_stack_qr
from .tree import TreeSchedule, batch_level, build_tree

__all__ = ["row_blocks", "level0_rows", "TSQRFactors", "tsqr", "tsqr_qr", "apply_wy_plan"]

# Level-0 height, in panel widths, for a requested block height below the
# width.  Blocks much taller than wide keep the reduction tree cheap
# (Demmel et al., arXiv 0808.2664): at 110592 x 100, factor plus form_q
# with 32n-row blocks runs about 3x faster than with n-row squares
# (benchmarks/bench_block_height.py).  32n is not a measured optimum:
# at 80-100 columns, 128n blocks ran about 30% faster still, while at
# 256 columns the times were flat from 32n on.
TALL_BLOCK_WIDTHS = 32


def row_blocks(m: int, block_rows: int) -> list[tuple[int, int]]:
    """Partition ``m`` rows into contiguous blocks of height ``block_rows``.

    The last block may be shorter.  ``block_rows`` is the paper's block
    height (64 in the reference configuration, so that the tree reduction
    "ends when the panel height becomes less than 64").
    """
    if m < 1:
        raise ValueError("m must be positive")
    if block_rows < 1:
        raise ValueError("block_rows must be positive")
    return [(i, min(i + block_rows, m)) for i in range(0, m, block_rows)]


def level0_rows(block_rows: int, width: int) -> int:
    """Level-0 row-block height for a ``width``-column panel.

    ``block_rows`` itself when it is at least ``width``: the paper's
    64 x 16 geometry, and every C2050 configuration (``KernelConfig``
    requires it).  A shorter block cannot hold a full ``width x width``
    R triangle; rather than square ``width``-row blocks, whose level 0
    reduces nothing and leaves all the work to the tree, it becomes
    ``TALL_BLOCK_WIDTHS * width`` rows.  Every consumer of the level-0
    geometry (the numerics, the plans, the task DAGs and the C2050
    launch model) goes through this one rule.
    """
    return block_rows if block_rows >= width else TALL_BLOCK_WIDTHS * width


@dataclass
class _LevelZeroFactor:
    """Packed Householder factor of one level-0 row block."""

    rows: tuple[int, int]  # [start, stop) within the panel
    VR: np.ndarray
    tau: np.ndarray

    @property
    def r_height(self) -> int:
        """Rows of the upper-trapezoidal R this block passes up the tree."""
        return min(self.VR.shape[0], self.VR.shape[1])


@dataclass
class _TreeFactor:
    """Householder factor of one stacked-R elimination group.

    Either a dense packed ``(VR, tau)`` (the ``factor_tree`` kernel's
    layout) or a sparsity-exploiting :class:`StructuredStackFactor`
    (Figure 2(c)'s optional optimization).
    """

    group: tuple[int, ...]  # member level-0 block indices (first survives)
    heights: tuple[int, ...]  # R rows contributed by each member
    VR: np.ndarray | None = None
    tau: np.ndarray | None = None
    structured: StructuredStackFactor | None = None

    def apply_qt_stack(self, stacked: np.ndarray) -> np.ndarray:
        if self.structured is not None:
            return self.structured.apply_qt(stacked)
        return orm2r(self.VR, self.tau, stacked, transpose=True)

    def apply_q_stack(self, stacked: np.ndarray) -> np.ndarray:
        if self.structured is not None:
            return self.structured.apply_q(stacked)
        return orm2r(self.VR, self.tau, stacked, transpose=False)


@dataclass
class _WyPlan:
    """Precomputed batched application schedule for one dtype.

    Built once per factorization (or lazily for factors loaded from disk)
    and reused by every ``apply_qt`` / ``apply_q`` / ``form_q`` call.

    * Level 0: the uniform block prefix is applied through a zero-copy
      ``(count, h, w)`` reshape of the target's leading rows; a ragged
      tail block is applied as an exact-height batch of one.
    * Each tree level is a list of entries, one per heights-signature
      batch: a ``(nodes, H)`` fancy-index row map plus the stacked
      compact-WY ``(V, T)``.  Entries within a level touch disjoint rows.
    """

    dtype: np.dtype
    l0_count: int
    l0_h: int
    l0_V: np.ndarray | None
    l0_T: np.ndarray | None
    # (row_start, real_height, V, T); V may be taller than real_height,
    # in which case the extra reflector rows are exact zeros (padding).
    l0_tail: list[tuple[int, int, np.ndarray, np.ndarray]]
    # per level: [("wy", idx, V, T) | ("structured", tree_factor, idx)]
    levels: list[list[tuple]]


def _member_rows(
    blocks: list[_LevelZeroFactor], group: tuple[int, ...], heights: tuple[int, ...]
) -> np.ndarray:
    """1-D row indices a tree node's stacked R occupies in the panel."""
    parts = [
        np.arange(blocks[i].rows[0], blocks[i].rows[0] + h, dtype=np.intp)
        for i, h in zip(group, heights)
    ]
    return np.concatenate(parts)


def _level_row_index(
    blocks: list[_LevelZeroFactor],
    groups: list[tuple[int, ...]],
    sig: tuple[int, ...],
) -> np.ndarray:
    """``(len(groups), sum(sig))`` gather/scatter map for one level batch."""
    if len(set(sig)) == 1:
        hr = sig[0]
        starts = np.fromiter(
            (blocks[i].rows[0] for grp in groups for i in grp),
            dtype=np.intp,
            count=len(groups) * len(sig),
        )
        return (starts[:, None] + np.arange(hr, dtype=np.intp)).reshape(
            len(groups), len(sig) * hr
        )
    return np.stack([_member_rows(blocks, grp, sig) for grp in groups])


def _convert_plan(src: _WyPlan, dt: np.dtype) -> _WyPlan:
    """Re-key an apply plan to a new working dtype (arrays cast once)."""

    def cast(a: np.ndarray | None) -> np.ndarray | None:
        return None if a is None else a.astype(dt)

    tail = [(s, h, V.astype(dt), T.astype(dt)) for s, h, V, T in src.l0_tail]
    levels = []
    for entries in src.levels:
        out = []
        for entry in entries:
            if entry[0] == "wy":
                _, idx, V, T = entry
                out.append(("wy", idx, V.astype(dt), T.astype(dt)))
            else:
                out.append(entry)
        levels.append(out)
    return _WyPlan(
        dtype=dt,
        l0_count=src.l0_count,
        l0_h=src.l0_h,
        l0_V=cast(src.l0_V),
        l0_T=cast(src.l0_T),
        l0_tail=tail,
        levels=levels,
    )


def _plan_from_factors(f: "TSQRFactors", dt: np.dtype) -> _WyPlan:
    """Build an apply plan from stored per-node factors.

    Used for factors that were not produced by the batched factorization
    (loaded from disk via :mod:`repro.io`, or factored with
    ``batched=False`` and then applied with ``batched=True``).
    """
    count, h = f._uniform_prefix()
    V0 = T0 = None
    if count > 0:
        VRs = np.stack([f.blocks[i].VR for i in range(count)])
        taus = np.stack([f.blocks[i].tau for i in range(count)])
        if VRs.dtype != dt:
            VRs = VRs.astype(dt)
            taus = taus.astype(dt)
        V0, T0 = wy_factors(VRs, taus)
    tail = []
    for blk in f.blocks[count:]:
        s, e = blk.rows
        VR1 = blk.VR[None]
        tau1 = blk.tau[None]
        if VR1.dtype != dt:
            VR1 = VR1.astype(dt)
            tau1 = tau1.astype(dt)
        V1, T1 = wy_factors(VR1, tau1)
        tail.append((s, e - s, V1, T1))
    levels: list[list[tuple]] = []
    for level_factors in f.tree_factors:
        entries: list[tuple] = []
        dense: dict[tuple[int, ...], list[_TreeFactor]] = {}
        for tf in level_factors:
            if tf.structured is not None:
                entries.append(("structured", tf, _member_rows(f.blocks, tf.group, tf.heights)))
            else:
                dense.setdefault(tuple(tf.heights), []).append(tf)
        for sig, tfs in dense.items():
            VRs = np.stack([tf.VR for tf in tfs])
            taus = np.stack([tf.tau for tf in tfs])
            if VRs.dtype != dt:
                VRs = VRs.astype(dt)
                taus = taus.astype(dt)
            V, T = wy_factors(VRs, taus)
            idx = _level_row_index(f.blocks, [tf.group for tf in tfs], sig)
            entries.append(("wy", idx, V, T))
        levels.append(entries)
    return _WyPlan(
        dtype=dt, l0_count=count, l0_h=h, l0_V=V0, l0_T=T0, l0_tail=tail, levels=levels
    )


def _plan_apply_level0(plan: _WyPlan, B: np.ndarray, transpose: bool) -> None:
    """Level-0 compact-WY application (``apply_qt_h``), batched."""
    if _obs.enabled():
        with _obs.span("apply.level0", cat="apply.level0", cols=int(B.shape[1])):
            _plan_apply_level0_impl(plan, B, transpose)
        return
    _plan_apply_level0_impl(plan, B, transpose)


def _plan_apply_level0_impl(plan: _WyPlan, B: np.ndarray, transpose: bool) -> None:
    w = B.shape[1]
    if plan.l0_count:
        count, h = plan.l0_count, plan.l0_h
        seg = B[: count * h]
        tiles = seg.reshape(count, h, w)
        if np.shares_memory(tiles, B):
            # Zero-copy: GEMM reads/writes straight through the strided
            # view — no gather, no scatter.
            apply_wy(plan.l0_V, plan.l0_T, tiles, transpose=transpose)
        else:
            tiles = np.ascontiguousarray(seg).reshape(count, h, w)
            apply_wy(plan.l0_V, plan.l0_T, tiles, transpose=transpose)
            seg[:] = tiles.reshape(count * h, w)
    for start, h_real, V1, T1 in plan.l0_tail:
        hv = V1.shape[1]
        if hv == h_real:
            apply_wy(V1, T1, B[start : start + h_real][None], transpose=transpose)
        else:
            # Padded batch of one: the V rows past h_real are exact zeros,
            # so the update on the pad rows is a no-op.
            sub = np.zeros((1, hv, w), dtype=B.dtype)
            sub[0, :h_real] = B[start : start + h_real]
            apply_wy(V1, T1, sub, transpose=transpose)
            B[start : start + h_real] = sub[0, :h_real]


def apply_wy_plan(plan: _WyPlan, B: np.ndarray, transpose: bool) -> None:
    """Apply a planned implicit Q (``transpose=True`` for Q^T) to ``B``.

    This is the whole batched application pipeline — level 0 through the
    tree levels for Q^T, the reverse for Q — factored out so the
    look-ahead executor (:mod:`repro.graph.executor`) can drive the same
    arithmetic on trailing-matrix column tiles.
    """
    if transpose:
        _plan_apply_level0(plan, B, transpose=True)
        for entries in plan.levels:
            _plan_apply_level(entries, B, transpose=True)
    else:
        for entries in reversed(plan.levels):
            _plan_apply_level(entries, B, transpose=False)
        _plan_apply_level0(plan, B, transpose=False)


def _plan_apply_level(entries: list[tuple], B: np.ndarray, transpose: bool) -> None:
    """One tree level (``apply_qt_tree``): gather, batched WY, scatter."""
    if _obs.enabled():
        with _obs.span("apply.tree", cat="apply.tree", cols=int(B.shape[1])):
            _plan_apply_level_impl(entries, B, transpose)
        return
    _plan_apply_level_impl(entries, B, transpose)


def _plan_apply_level_impl(entries: list[tuple], B: np.ndarray, transpose: bool) -> None:
    for entry in entries:
        if entry[0] == "wy":
            _, idx, V, T = entry
            sub = B[idx]
            apply_wy(V, T, sub, transpose=transpose)
            B[idx] = sub
        else:
            _, tf, idx = entry
            sub = B[idx]
            if transpose:
                tf.apply_qt_stack(sub)
            else:
                tf.apply_q_stack(sub)
            B[idx] = sub


@dataclass
class TSQRFactors:
    """Implicit Q of a TSQR factorization.

    Supports applying Q/Q^T to any conformal matrix (this is exactly the
    paper's trailing-matrix update: ``apply_qt_h`` for the level-0 factors
    and ``apply_qt_tree`` for the tree factors) and forming the explicit
    thin Q (the SORGQR-equivalent).

    ``batched`` selects the execution strategy for applications: the
    compact-WY plan path (default) or the seed per-node reference loop.
    Apply plans are cached per working dtype in ``_wy_plan``; factors
    loaded from disk build theirs lazily on first use.
    """

    m: int
    n: int
    blocks: list[_LevelZeroFactor]
    tree: TreeSchedule
    tree_factors: list[list[_TreeFactor]]  # one list per tree level
    R: np.ndarray  # final min(m, n) x n upper-triangular factor
    batched: bool = True
    _wy_plan: dict = field(default_factory=dict, repr=False, compare=False)
    _l0_ref: dict = field(default_factory=dict, repr=False, compare=False)

    # -- internal helpers -------------------------------------------------

    def _uniform_prefix(self) -> tuple[int, int]:
        """(count, height) of the leading run of equal-height blocks."""
        if not self.blocks:
            return 0, 0
        h = self.blocks[0].rows[1] - self.blocks[0].rows[0]
        count = 0
        for blk in self.blocks:
            if blk.rows[1] - blk.rows[0] != h:
                break
            count += 1
        return count, h

    def _plan_for(self, dt: np.dtype) -> _WyPlan:
        """Apply plan for working dtype ``dt`` (cached; built on demand)."""
        dt = np.dtype(dt)
        plan = self._wy_plan.get(dt)
        if plan is None:
            fdt = np.dtype(working_dtype(self.R))
            src = self._wy_plan.get(fdt)
            if src is None:
                src = _plan_from_factors(self, fdt)
                self._wy_plan[fdt] = src
            plan = src if dt == fdt else _convert_plan(src, dt)
            self._wy_plan[dt] = plan
        return plan

    def _level0_ref(self, dt: np.dtype):
        """Dtype-normalized stacked level-0 factors for the reference path.

        The seed rebuilt (and re-``astype``d) these stacks on every apply;
        they are now normalized once per dtype and cached.
        """
        key = np.dtype(dt)
        ent = self._l0_ref.get(key)
        if ent is None:
            count, h = self._uniform_prefix()
            if count > 1:
                VRs = np.stack([self.blocks[i].VR for i in range(count)])
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
            orm2r(blk.VR, blk.tau, B[s:e], transpose=transpose)

    def _gather(self, B: np.ndarray, tf: _TreeFactor) -> tuple[np.ndarray, list[tuple[int, int]]]:
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

    # -- public API --------------------------------------------------------

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        W = B[:, None] if B.ndim == 1 else B  # view: updates land in B
        if self.batched:
            apply_wy_plan(self._plan_for(W.dtype), W, transpose=True)
            return B
        # Level 0: independent per-block applications (apply_qt_h).
        self._apply_level0(W, transpose=True)
        # Tree levels, bottom-up (apply_qt_tree).
        for level_factors in self.tree_factors:
            for tf in level_factors:
                stacked, ranges = self._gather(W, tf)
                tf.apply_qt_stack(stacked)
                self._scatter(W, stacked, ranges)
        return B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        W = B[:, None] if B.ndim == 1 else B  # view: updates land in B
        if self.batched:
            apply_wy_plan(self._plan_for(W.dtype), W, transpose=False)
            return B
        for level_factors in reversed(self.tree_factors):
            for tf in level_factors:
                stacked, ranges = self._gather(W, tf)
                tf.apply_q_stack(stacked)
                self._scatter(W, stacked, ranges)
        self._apply_level0(W, transpose=False)
        return B

    def form_q(self) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q."""
        k = min(self.m, self.n)
        Q = np.zeros((self.m, k), dtype=working_dtype(self.R))
        np.fill_diagonal(Q, 1.0)
        return self.apply_q(Q)


def _tsqr_batched(
    A: np.ndarray,
    m: int,
    n: int,
    block_rows: int,
    ranges: list[tuple[int, int]],
    tree: TreeSchedule,
    structured: bool,
) -> TSQRFactors:
    """Fully-batched TSQR: one blocked QR per level, plan prebuilt."""
    dt = A.dtype
    nb = len(ranges)
    h_last = ranges[-1][1] - ranges[-1][0]
    ragged = nb > 1 and h_last != block_rows
    l0_count = nb - 1 if ragged else nb
    if nb == 1:
        stack = A[None, :, :]
    else:
        # The full-height blocks are an axis-0 reshape — a view, no copy.
        # A ragged last block is factored separately as a batch of one at
        # its exact height, so neither the factor nor later Q applies
        # ever touch pad rows.
        stack = A[: l0_count * block_rows].reshape(l0_count, block_rows, n)
    with _obs.span("tsqr.level0", cat="factor.level0", blocks=nb):
        VRb, taub, Vb, Tb = geqr2_blocked(stack)
    bh = stack.shape[1]
    k0 = min(bh, n)

    blocks: list[_LevelZeroFactor] = []
    for i, (s, e) in enumerate(ranges[:l0_count]):
        blocks.append(_LevelZeroFactor(rows=(s, e), VR=VRb[i], tau=taub[i]))

    Rb = np.triu(VRb[:, :k0, :])
    current_r: dict[int, np.ndarray] = {}
    for i in range(l0_count):
        current_r[i] = Rb[i]

    l0_tail = []
    if ragged:
        s, e = ranges[-1]
        with _obs.span("tsqr.level0", cat="factor.level0", blocks=1):
            VRl, taul, Vl, Tl = geqr2_blocked(A[s:e][None, :, :])
        blocks.append(_LevelZeroFactor(rows=(s, e), VR=VRl[0], tau=taul[0]))
        kl = min(h_last, n)
        current_r[nb - 1] = np.triu(VRl[0, :kl, :])
        l0_tail.append((s, h_last, Vl, Tl))

    tree_factors: list[list[_TreeFactor]] = []
    plan_levels: list[list[tuple]] = []
    for level in tree.levels:
        level_factors: list[_TreeFactor | None] = [None] * len(level)
        entries: list[tuple] = []
        if structured:
            for p, group in enumerate(level):
                heights = tuple(current_r[i].shape[0] for i in group)
                with _obs.span("tsqr.tree", cat="factor.tree", groups=1):
                    sf = structured_stack_qr([current_r[i] for i in group])
                tf = _TreeFactor(group=group, heights=heights, structured=sf)
                level_factors[p] = tf
                entries.append(("structured", tf, _member_rows(blocks, group, heights)))
                current_r[group[0]] = sf.R
                for dead in group[1:]:
                    del current_r[dead]
        else:
            sig_batches = batch_level(
                level, key=lambda grp: tuple(current_r[i].shape[0] for i in grp)
            )
            for sig, poss in sig_batches.items():
                groups = [level[p] for p in poss]
                g = len(groups)
                H = sum(sig)
                if len(set(sig)) == 1:
                    arrs = [current_r[i] for grp in groups for i in grp]
                    stacked = np.stack(arrs).reshape(g, H, n)
                else:
                    stacked = np.stack(
                        [np.vstack([current_r[i] for i in grp]) for grp in groups]
                    )
                with _obs.span("tsqr.tree", cat="factor.tree", groups=g):
                    VRt, taut, Vt, Tt = geqr2_blocked(stacked)
                kt = min(H, n)
                Rt = np.triu(VRt[:, :kt, :])
                entries.append(("wy", _level_row_index(blocks, groups, sig), Vt, Tt))
                for gi, (p, grp) in enumerate(zip(poss, groups)):
                    level_factors[p] = _TreeFactor(
                        group=grp, heights=sig, VR=VRt[gi], tau=taut[gi]
                    )
                    current_r[grp[0]] = Rt[gi]
                    for dead in grp[1:]:
                        del current_r[dead]
        tree_factors.append(list(level_factors))
        plan_levels.append(entries)

    (survivor_idx,) = list(current_r)
    R = current_r[survivor_idx]
    k = min(m, n)
    if R.shape[0] < k:
        R = np.vstack([R, np.zeros((k - R.shape[0], n), dtype=R.dtype)])
    f = TSQRFactors(
        m=m, n=n, blocks=blocks, tree=tree, tree_factors=tree_factors, R=R[:k], batched=True
    )
    f._wy_plan[np.dtype(dt)] = _WyPlan(
        dtype=np.dtype(dt),
        l0_count=l0_count,
        l0_h=bh,
        l0_V=Vb[:l0_count],
        l0_T=Tb[:l0_count],
        l0_tail=l0_tail,
        levels=plan_levels,
    )
    return f


def _tsqr_reference(
    A: np.ndarray,
    m: int,
    n: int,
    block_rows: int,
    ranges: list[tuple[int, int]],
    tree: TreeSchedule,
    structured: bool,
) -> TSQRFactors:
    """The seed per-node factorization path (correctness oracle)."""
    # Level 0: factor every row block independently.  Full-height blocks
    # are factored through the batched kernel (one "thread block" per
    # small QR, vectorized across the batch — Section I's many-small-QRs
    # observation); only a ragged last block falls back to the scalar path.
    blocks = []
    current_r: dict[int, np.ndarray] = {}
    n_full = sum(1 for (s, e) in ranges if e - s == block_rows)
    with _obs.span("tsqr.level0", cat="factor.level0", blocks=len(ranges)):
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
            blk = _LevelZeroFactor(rows=(s, e), VR=VR, tau=tau)
            blocks.append(blk)
            current_r[i] = np.triu(VR[: blk.r_height, :])

    # Tree reduction: stack surviving Rs and factor the stacks.
    tree_factors: list[list[_TreeFactor]] = []
    for level in tree.levels:
        level_factors = []
        with _obs.span("tsqr.tree", cat="factor.tree", groups=len(level)):
            for group in level:
                heights = tuple(current_r[i].shape[0] for i in group)
                if structured:
                    sf = structured_stack_qr([current_r[i] for i in group])
                    tf = _TreeFactor(group=group, heights=heights, structured=sf)
                    new_r = sf.R
                else:
                    stacked = np.vstack([current_r[i] for i in group])
                    VR, tau = geqr2(stacked)
                    tf = _TreeFactor(group=group, heights=heights, VR=VR, tau=tau)
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
    return TSQRFactors(
        m=m, n=n, blocks=blocks, tree=tree, tree_factors=tree_factors, R=R[:k], batched=False
    )


def _tsqr_impl(
    A: np.ndarray,
    block_rows: int,
    tree_shape: str,
    structured: bool,
    batched: bool,
) -> TSQRFactors:
    """Factor an *already validated* matrix with TSQR (no guard layer).

    Internal callers (the CAQR panel loop, the look-ahead executor's
    fallback, the randomized-SVD range finder, :class:`QRPlan`) come in
    here directly: the matrix was validated exactly once at the public
    entry point, so this path never re-scans it.
    """
    m, n = A.shape
    # Every level-0 R must be a full n x n triangle so the final R lands
    # contiguously in the first block (see level0_rows).
    block_rows = level0_rows(block_rows, n)
    ranges = row_blocks(m, block_rows)
    tree = build_tree(len(ranges), tree_shape)
    if batched:
        return _tsqr_batched(A, m, n, block_rows, ranges, tree, structured)
    return _tsqr_reference(A, m, n, block_rows, ranges, tree, structured)


def tsqr(
    A: np.ndarray,
    block_rows: int = UNSET,
    tree_shape: str = UNSET,
    structured: bool = UNSET,
    batched: bool = UNSET,
    nonfinite: str = UNSET,
    *,
    policy: ExecutionPolicy | None = None,
) -> TSQRFactors:
    """Factor a tall-skinny matrix with TSQR (Figure 2).

    Prefer ``policy=`` (an :class:`~repro.runtime.policy.ExecutionPolicy`
    naming the execution path, geometry and guard behaviour).  The loose
    kwargs remain as deprecation shims mapped by
    :func:`~repro.runtime.policy.resolve_policy`:

    Args:
        A: ``m x n`` matrix (any aspect ratio is accepted; TSQR pays off
            for ``m >> n``).
        block_rows: requested height of the level-0 row blocks; a request
            below ``n`` gets ``32 * n``-row blocks (:func:`level0_rows`).
        tree_shape: reduction-tree shape (see :mod:`repro.core.tree`).
        structured: (deprecated) eliminate the stacked Rs with the
            sparsity-exploiting structured QR (~3x fewer tree flops);
            maps to ``path="structured"``.
        batched: (deprecated) vectorize the factorization and all later
            Q applications; ``False`` maps to the seed reference path.
        nonfinite: (deprecated) non-finite input policy (``"raise"`` /
            ``"propagate"``); see :mod:`repro.verify.guards`.
        policy: the execution policy; mutually exclusive with the
            legacy kwargs above.

    Returns:
        A :class:`TSQRFactors` holding the implicit Q and the final R.
    """
    from repro.verify.guards import validate_matrix

    policy = resolve_policy(
        "tsqr",
        policy,
        batched=batched,
        structured=structured,
        nonfinite=nonfinite,
        block_rows=block_rows,
        tree_shape=tree_shape,
    )
    with _obs.maybe_trace(policy.trace):
        A = validate_matrix(A, where="tsqr", nonfinite=policy.nonfinite)
        with _obs.span(
            "tsqr", cat="factor", m=A.shape[0], n=A.shape[1], path=policy.path
        ):
            return _tsqr_impl(
                A,
                block_rows=policy.block_rows,
                tree_shape=policy.tree_shape,
                structured=policy.uses_structured,
                batched=policy.uses_batched,
            )


def tsqr_qr(
    A: np.ndarray,
    block_rows: int = UNSET,
    tree_shape: str = UNSET,
    structured: bool = UNSET,
    batched: bool = UNSET,
    nonfinite: str = UNSET,
    *,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: explicit thin ``(Q, R)`` via TSQR."""
    f = tsqr(
        A,
        block_rows=block_rows,
        tree_shape=tree_shape,
        structured=structured,
        batched=batched,
        nonfinite=nonfinite,
        policy=policy,
    )
    return f.form_q(), f.R
