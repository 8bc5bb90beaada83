"""Stacked batched CAQR: many independent same-shape QRs in one pass.

:func:`repro.core.caqr._caqr_serial` factors one matrix by batching the
compact-WY work *across tree nodes*.  This module folds a second axis
into those same kernels — ``requests``: ``r`` independent ``(m, n)``
problems are stacked into an ``(r, m, n)`` array and every level-0
factorization, tree combine, trailing update and Q application runs as
one gufunc/GEMM call over ``r * nodes`` slices instead of ``nodes``
slices ``r`` times.

**Bit-identity.**  Every kernel involved — the stacked-QR gufunc behind
:func:`repro.smallblas.wy.geqr2_wy`, :func:`~repro.smallblas.wy.larft`,
and the three batched GEMMs of :func:`~repro.smallblas.wy.apply_wy` —
computes each batch slice independently and deterministically, so slice
``i`` of the stacked result equals what ``QRPlan.factor`` produces for
request ``i`` alone, bit for bit.  The serving tests pin this; it is the
contract that lets the coalescer merge tenants' requests without
changing anyone's answer.

**Why a plan object.**  At serving shapes (hundreds of rows, tens of
columns) the per-batch Python work — building the reduction tree,
row-index maps for the scatter/gather levels, boolean triangle masks —
costs as much as the GEMMs.  :class:`ServingPlan` computes all of it
once per ``(m, n, dtype, policy)`` and the per-batch path touches only
arrays.  The input staging buffer is pooled on the plan (the server's
single worker thread is the only executor), so a steady-state batch
performs no large allocations beyond its own ``Q``/``R`` outputs.
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import batch_level, build_tree
from repro.core.tsqr import level0_rows, row_blocks
from repro.runtime.policy import ExecutionPolicy
from repro.smallblas.wy import apply_wy, geqr2_wy

__all__ = ["ServingPlan", "stacked_qr"]

# apply_wy chunk bound for serving stacks.  The coalescer's trailing
# updates are many small tiles (not paper-scale panels), so fewer,
# larger GEMM dispatches beat keeping each chunk cache-resident; the
# results are bitwise identical across chunk settings (the chunk splits
# the batch axis only).
SERVING_CHUNK_ELEMS = 1 << 19


def _r_from_h(h, kk, rmask):
    """Upper-triangular ``(b, kk, pw)`` R block from the raw packed factor."""
    Rt = h[:, :, :kk].transpose(0, 2, 1)
    return np.where(rmask, Rt, 0.0)


class _PanelPlan:
    """Shape-only metadata for one panel's TSQR: blocks, tree, masks."""

    __slots__ = (
        "c0", "pw", "r0", "hp", "ranges", "l0", "eff_h", "tail_se",
        "k0", "vmask0", "rmask0", "vmask_tail", "rmask_tail", "levels",
    )

    def __init__(self, c0: int, pw: int, hp: int, block_rows: int, tree_shape: str):
        self.c0, self.pw, self.r0, self.hp = c0, pw, c0, hp
        bh = level0_rows(block_rows, pw)
        self.ranges = row_blocks(hp, bh)
        nb = len(self.ranges)
        h_last = self.ranges[-1][1] - self.ranges[-1][0]
        ragged = nb > 1 and h_last != bh
        self.l0 = nb - 1 if ragged else nb
        self.eff_h = hp if nb == 1 else bh
        self.tail_se = self.ranges[-1] if ragged else None
        self.k0 = min(self.eff_h, pw)
        self.vmask0 = np.tri(self.eff_h, self.k0, -1, dtype=bool)
        self.rmask0 = ~np.tri(self.k0, pw, -1, dtype=bool)
        self.vmask_tail = self.rmask_tail = None
        if ragged:
            kl = min(h_last, pw)
            self.vmask_tail = np.tri(h_last, kl, -1, dtype=bool)
            self.rmask_tail = ~np.tri(kl, pw, -1, dtype=bool)
        starts = [rg[0] for rg in self.ranges]
        # The tree's group structure, gather maps and triangle masks are
        # pure functions of the block heights — precompute every level.
        heights = {
            i: min(e - s, pw) for i, (s, e) in enumerate(self.ranges)
        }
        tree = build_tree(nb, tree_shape)
        self.levels = []
        for level in tree.levels:
            entries = []
            sig_batches = batch_level(
                level, key=lambda grp: tuple(heights[i] for i in grp)
            )
            for sig, poss in sig_batches.items():
                groups = [level[p] for p in poss]
                H = sum(sig)
                kt = min(H, pw)
                rowidx = np.stack([
                    np.concatenate([
                        np.arange(starts[i], starts[i] + h, dtype=np.intp)
                        for i, h in zip(grp, sig)
                    ])
                    for grp in groups
                ])
                offs = []
                pos = 0
                for h in sig:
                    offs.append((pos, pos + h))
                    pos += h
                entries.append((
                    groups, offs, len(groups), H, kt, rowidx,
                    np.tri(H, kt, -1, dtype=bool),
                    ~np.tri(kt, pw, -1, dtype=bool),
                ))
                for grp in groups:
                    heights[grp[0]] = kt
                    for dead in grp[1:]:
                        del heights[dead]
            self.levels.append(entries)


class ServingPlan:
    """Reusable stacked-execution plan for one ``(m, n, dtype, policy)``.

    Built once per shape by the server's worker thread and cached; not
    thread-safe (the pooled staging buffer assumes a single executor).
    """

    def __init__(self, m: int, n: int, dtype, policy: ExecutionPolicy):
        if policy.path != "batched":
            raise ValueError(
                f"ServingPlan implements the 'batched' path arithmetic, "
                f"got path={policy.path!r}"
            )
        self.m, self.n = m, n
        self.dtype = np.dtype(dtype)
        self.policy = policy
        self.k = min(m, n)
        self.panels = [
            _PanelPlan(
                c0,
                min(policy.panel_width, self.k - c0),
                m - c0,
                policy.block_rows,
                policy.tree_shape,
            )
            for c0 in range(0, self.k, policy.panel_width)
        ]
        self._diag = np.arange(self.k)
        self._staging: np.ndarray | None = None

    def staging(self, r: int) -> np.ndarray:
        """Pooled ``(r, m, n)`` input buffer, grown to the high-water mark."""
        buf = self._staging
        if buf is None or buf.shape[0] < r:
            buf = self._staging = np.empty((r, self.m, self.n), dtype=self.dtype)
        return buf[:r]

    def factor_stack(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Factor the owned, mutable ``(r, m, n)`` stack ``W`` in place.

        Returns ``(Q, R)`` stacks, slice ``i`` bit-identical to the
        per-request batched path on ``W[i]``.
        """
        r = W.shape[0]
        k = self.k
        applied = []
        for pp in self.panels:
            panel = W[:, pp.r0:, pp.c0:pp.c0 + pp.pw]
            factors = _factor_panel(panel, pp, r)
            trailing = W[:, pp.r0:, pp.c0 + pp.pw:]
            if trailing.size:
                _apply_stacked(factors, trailing, transpose=True)
            Rp = factors["R"]
            rh = Rp.shape[1]
            W[:, pp.r0:pp.r0 + rh, pp.c0:pp.c0 + pp.pw] = Rp
            W[:, pp.r0 + rh:, pp.c0:pp.c0 + pp.pw] = 0.0
            applied.append((pp, factors))
        R = np.triu(W[:, :k, :])
        Q = np.zeros((r, self.m, k), dtype=W.dtype)
        Q[:, self._diag, self._diag] = 1.0
        for pp, factors in reversed(applied):
            _apply_stacked(factors, Q[:, pp.r0:, :], transpose=False)
        return Q, R


def stacked_qr(mats, plan: ServingPlan) -> tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper: stage ``mats`` into the pooled buffer and factor."""
    W = plan.staging(len(mats))
    for i, a in enumerate(mats):
        np.copyto(W[i], a)
    return plan.factor_stack(W)


def _factor_panel(panel, pp: _PanelPlan, r: int) -> dict:
    """Stacked TSQR of one panel: level-0 batch, ragged tail, tree levels."""
    pw = pp.pw
    if len(pp.ranges) == 1:
        batch0 = panel
    else:
        # A strided view whenever the (requests, blocks) axes merge
        # cleanly; np.linalg.qr copies internally either way.
        batch0 = panel[:, : pp.l0 * pp.eff_h, :].reshape(r * pp.l0, pp.eff_h, pw)
    V0, T0, h0 = geqr2_wy(batch0, pp.vmask0)
    current = {}
    R0 = _r_from_h(h0, pp.k0, pp.rmask0).reshape(r, pp.l0, pp.k0, pw)
    for i in range(pp.l0):
        current[i] = R0[:, i]
    tail = None
    if pp.tail_se is not None:
        s, e = pp.tail_se
        Vl, Tl, hl = geqr2_wy(panel[:, s:e, :], pp.vmask_tail)
        current[len(pp.ranges) - 1] = _r_from_h(
            hl, pp.vmask_tail.shape[1], pp.rmask_tail
        )
        tail = (s, e - s, Vl, Tl)
    levels = []
    for entries in pp.levels:
        lvl = []
        for groups, offs, g, H, kt, rowidx, vmask, rmask in entries:
            stacked = np.empty((r, g, H, pw), dtype=panel.dtype)
            for gi, grp in enumerate(groups):
                for i, (o0, o1) in zip(grp, offs):
                    stacked[:, gi, o0:o1] = current[i]
            Vt, Tt, ht = geqr2_wy(stacked.reshape(r * g, H, pw), vmask)
            Rt = _r_from_h(ht, kt, rmask).reshape(r, g, kt, pw)
            lvl.append((rowidx, Vt, Tt, g))
            for gi, grp in enumerate(groups):
                current[grp[0]] = Rt[:, gi]
                for dead in grp[1:]:
                    del current[dead]
        levels.append(lvl)
    (surv,) = current
    Rtop = current[surv]
    kk = min(pp.hp, pw)
    if Rtop.shape[1] < kk:
        pad = np.zeros((r, kk - Rtop.shape[1], pw), dtype=Rtop.dtype)
        Rtop = np.concatenate([Rtop, pad], axis=1)
    return {"l0": (pp.l0, pp.eff_h, V0, T0), "tail": tail, "levels": levels,
            "R": Rtop[:, :kk]}


def _apply_stacked(factors: dict, B: np.ndarray, transpose: bool) -> None:
    """Apply the panel's implicit Q (or Q^T) to the ``(r, h, w)`` view ``B``."""
    if transpose:
        _apply_l0(factors, B, True)
        for lvl in factors["levels"]:
            _apply_level(lvl, B, True)
    else:
        for lvl in reversed(factors["levels"]):
            _apply_level(lvl, B, False)
        _apply_l0(factors, B, False)


def _apply_l0(factors: dict, B: np.ndarray, transpose: bool) -> None:
    r, _, w = B.shape
    l0, bh, V, T = factors["l0"]
    if l0:
        seg = B[:, : l0 * bh, :]
        flat = seg.reshape(r * l0, bh, w)
        if np.shares_memory(flat, B):
            # GEMM reads/writes through the strided view: no copies.
            apply_wy(V, T, flat, transpose=transpose,
                     chunk_elems=SERVING_CHUNK_ELEMS)
        else:
            tiles = np.ascontiguousarray(seg).reshape(r * l0, bh, w)
            apply_wy(V, T, tiles, transpose=transpose,
                     chunk_elems=SERVING_CHUNK_ELEMS)
            seg[:] = tiles.reshape(r, l0 * bh, w)
    if factors["tail"] is not None:
        s, h, Vl, Tl = factors["tail"]
        apply_wy(Vl, Tl, B[:, s:s + h, :], transpose=transpose,
                 chunk_elems=SERVING_CHUNK_ELEMS)


def _apply_level(lvl: list, B: np.ndarray, transpose: bool) -> None:
    r, _, w = B.shape
    for rowidx, V, T, g in lvl:
        H = rowidx.shape[1]
        sub = B[:, rowidx, :]  # gather: (r, g, H, w)
        flat = sub.reshape(r * g, H, w)
        apply_wy(V, T, flat, transpose=transpose,
                 chunk_elems=SERVING_CHUNK_ELEMS)
        B[:, rowidx, :] = flat.reshape(r, g, H, w)
