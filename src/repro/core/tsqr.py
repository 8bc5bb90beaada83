"""Tall-Skinny QR (TSQR) — Section II-B of the paper.

The tall matrix is divided vertically into small row blocks; each block is
factored independently (the paper's ``factor`` kernel), and the resulting
R factors are eliminated up a reduction tree (the ``factor_tree`` kernel).
The Q factor is left *implicit* as the collection of per-block and
per-tree-node Householder factors (the "series of small Us" of Figure 2),
from which Q or Q^T can be applied, or the explicit thin Q formed.  They
are held in one form, the apply plan (:class:`_WyPlan`): compact-WY
stacks per tree level, which :mod:`repro.io` archives as they are.

One engine runs it.  :func:`panel_schedule` captures everything
shape-dependent once per ``(height, width, block_rows, tree_shape)``
(the level-0 blocks, a ragged tail, and each tree level's same-signature
batches with their row maps), and :func:`factor_panel` runs it on a
``(r, height, width)`` stack of ``r`` independent panels: one call of
the shared slice kernel for the level-0 blocks, one for the tail, and
one per batch of each tree level, whose stacked Rs are views of the
previous level's output.  The tree merges take one of two kernels, the
dense slice kernel, under which no per-block or per-node Python work runs
on the factor path, or Figure 2(c)'s structured elimination of the
stacked triangles (``structured``, one group at a time), but every merge
gives one kind of entry: a batch's row map and its stacked compact-WY
``(V, T)``.  The result is R and a :class:`_WyPlan` of compact-WY
factors, applied by :func:`apply_wy_plan` as three batched GEMMs per
level (``C -= V (T' (V' C))``).  ``V`` is never copied whole: it is a
view of LAPACK's packed output, whose R the factor moved out
(:func:`repro.smallblas.wy.v_in_place`).  The explicit Q is formed
from the same plan the way LAPACK ``orgqr`` forms it
(:func:`_plan_form_q`), on SciPy's BLAS when available, and, where the
factors are discarded, over the level-0 reflectors in the buffer they
were factored in (:func:`factor_panel`'s ``home``).  ``tsqr``, the
look-ahead CAQR driver and the serving coalescer all run this engine.

The sharded fan-in and the streaming fold are TSQR on other trees, whose
leaves are whole row blocks with their own CAQR factors (Demmel et al.,
arXiv 0809.2407).  They merge through :func:`merge_rs`, on the same
slice kernel, into the same entries, and apply them with
:func:`apply_merges`.

This module is the pure-numerics implementation; the GPU-simulated
execution (launch costs, timing) reuses these factor objects through
:mod:`repro.caqr_gpu` — the simulator timeline depends only on shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .dtypes import as_float_array, q_buffer, working_dtype
from repro.obs import tracer as _obs
from repro.runtime.policy import ExecutionPolicy
from repro.smallblas.wy import _factor_slices, apply_wy, blas_name, larft, orgqr_wy, takes_geqrt
from .structured import structured_stack_qr
from .tree import TreeSchedule, batch_level, build_tree

__all__ = [
    "row_blocks", "level0_rows", "PanelSchedule", "panel_schedule", "factor_panel",
    "apply_wy_plan", "merge_rs", "apply_merges", "TSQRFactors", "tsqr", "tsqr_qr",
]

# Level-0 height, in panel widths, for an unset block height (every host
# engine's default) or a requested height below the width.  Blocks much
# taller than wide keep the reduction tree cheap (Demmel et al., arXiv
# 0808.2664).  Wide TSQR panels: at 110592 x 100, factor plus form_q with
# 32n-row blocks runs about 3x faster than with n-row squares, and with
# the geqrt block factor the curve is nearly flat from 16n on (64n and
# 128n ran 4-12% faster than 32n at 80-256 columns, about the sweep's
# noise).  Narrow CAQR panels: the look-ahead tree (factor plus form_q)
# on the graded 110592 x 100 input at panel width 16 ran 1.0-1.2 s with
# the paper's 64-row blocks and 0.64-0.71 s from 32n = 512 rows up to
# 128n (benchmarks/bench_block_height.py has both sweeps).
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


def level0_rows(block_rows: int | None, width: int) -> int:
    """Level-0 row-block height for a ``width``-column panel.

    ``None`` (unset, the default of every host engine) means the host
    rule: ``TALL_BLOCK_WIDTHS * width`` rows, sized for the host's
    caches rather than for one C2050 SM.  An explicit ``block_rows`` is
    kept when it is at least ``width``: the paper's 64 x 16 geometry,
    and every C2050 configuration (``KernelConfig`` requires it).  A
    shorter explicit block cannot hold a full ``width x width`` R
    triangle; rather than square ``width``-row blocks, whose level 0
    reduces nothing and leaves all the work to the tree, it gets the
    host rule too.  Every consumer of the level-0 geometry (the
    numerics, the plans, the task DAGs and the C2050 launch model) goes
    through this one rule.
    """
    if block_rows is None or block_rows < width:
        return TALL_BLOCK_WIDTHS * width
    return block_rows


@dataclass
class _WyPlan:
    """TSQR's factors: the batched application schedule of one dtype.

    :func:`factor_panel` builds it (:mod:`repro.io` loads a saved one),
    and every ``apply_qt`` / ``apply_q`` / ``form_q`` call reuses it.
    The factors of an ``r``-stack hold each batch's slices request by
    request: request ``i``'s level-0 blocks are
    ``l0_V[i * l0_count : (i + 1) * l0_count]``.

    * Level 0: the uniform block prefix is applied through a zero-copy
      ``(count, h, w)`` reshape of the target's leading rows; a ragged
      tail block is applied as an exact-height batch of one.
    * Each tree level is a list of entries ``(idx, V, T)``, one per
      heights-signature batch: a ``(nodes, H)`` fancy-index row map and
      the stacked compact-WY factors, whichever kernel merged them.
      Entries within a level touch disjoint rows.
    """

    dtype: np.dtype
    # The defaults are the plan of an empty matrix: no reflectors.
    l0_count: int = 0
    l0_h: int = 0
    # V: (count, h, k) reflectors; from the engine, a view of the factor
    # kernel's packed output (smallblas.wy.v_in_place)
    l0_V: np.ndarray | None = None
    l0_T: np.ndarray | None = None
    # (row_start, height, V, T) of a ragged last block
    l0_tail: list[tuple[int, int, np.ndarray, np.ndarray]] = field(default_factory=list)
    # per level: [(idx, V, T)]
    levels: list[list[tuple]] = field(default_factory=list)
    # The (height, width) Q buffer the level-0 reflectors were factored
    # in (factor_panel's ``home``), and whether the uniform blocks and the
    # ragged tail live there (geqrt slices do); None when neither does
    home: np.ndarray | None = None
    homed: tuple[bool, bool] = (False, False)


# ---------------------------------------------------------------------------
# The panel engine: a shape-only schedule and the runner that factors it ----
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _TreeBatch:
    """One tree level's groups of one R-height signature, factored as one stack.

    ``src`` selects the stacked rows from the level's R slab: a slice
    when the members lie in it in group order (on every built-in tree),
    an index array otherwise.  ``idx`` maps each group's stacked rows to
    the panel rows its Q acts on.
    """

    positions: tuple[int, ...]  # the groups' positions in the tree level
    heights: tuple[int, ...]  # R rows each member stacks (the signature)
    src: slice | np.ndarray
    idx: np.ndarray  # (groups, sum(heights))


@dataclass(frozen=True, eq=False)
class PanelSchedule:
    """Everything shape-dependent about factoring one panel with TSQR.

    Built by :func:`panel_schedule` and run by :func:`factor_panel`.
    The R slab of a level holds the live blocks' Rs one under another:
    level 0's in block order, each later level's as the batches' outputs
    in batch order followed by the blocks riding along (``carry``).
    """

    height: int
    width: int
    block_rows: int  # effective level-0 height (level0_rows)
    tree: TreeSchedule
    ranges: tuple[tuple[int, int], ...]  # level-0 row blocks
    l0_count: int  # uniform leading blocks, factored as one stack
    l0_h: int
    tail: tuple[int, int] | None  # (row_start, rows) of a ragged last block
    levels: tuple[tuple[_TreeBatch, ...], ...]
    carry: tuple[slice | np.ndarray | None, ...]  # per level: slab rows riding along


def _runs(starts, heights) -> np.ndarray:
    """The row runs ``[start, start + height)``, concatenated (read-only:
    cached schedules share them with every caller)."""
    starts = np.asarray(starts, dtype=np.intp)
    if len(set(heights)) == 1:
        rows = (starts[:, None] + np.arange(heights[0], dtype=np.intp)).ravel()
    else:
        rows = np.concatenate([np.arange(s, s + h, dtype=np.intp) for s, h in zip(starts, heights)])
    rows.setflags(write=False)
    return rows


def _as_slice(rows: np.ndarray) -> slice | np.ndarray:
    """``rows`` as a slice when they are one ascending run (a view, not a gather)."""
    if (np.diff(rows) == 1).all():
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


@lru_cache(maxsize=64)
def panel_schedule(height: int, width: int, block_rows: int, tree_shape: str) -> PanelSchedule:
    """Capture the TSQR schedule of a ``height x width`` panel (cached).

    ``block_rows`` is the effective level-0 height (:func:`level0_rows`).
    Pure shape arithmetic: the result serves every matrix, dtype and
    stack size of the shape, so callers that hold it (plans) never
    capture again, and a repeated direct call is a cache hit.
    """
    ranges = tuple(row_blocks(height, block_rows))
    nb = len(ranges)
    s_last, e_last = ranges[-1]
    tail = (s_last, e_last - s_last) if nb > 1 and e_last - s_last != block_rows else None
    tree = build_tree(nb, tree_shape)
    start = [s for s, _ in ranges]
    h = [min(e - s, width) for s, e in ranges]  # R rows each live block holds
    order = list(range(nb))  # live blocks, in slab order
    levels, carry = [], []
    for level in tree.levels:
        at = dict(zip(order, np.cumsum([0] + [h[i] for i in order[:-1]]).tolist()))
        batches = []
        for sig, poss in batch_level(level, key=lambda grp: tuple(h[i] for i in grp)).items():
            members = [i for p in poss for i in level[p]]
            hs = [h[i] for i in members]
            batches.append(_TreeBatch(
                positions=tuple(poss),
                heights=sig,
                src=_as_slice(_runs([at[i] for i in members], hs)),
                idx=_runs([start[i] for i in members], hs).reshape(len(poss), sum(sig)),
            ))
        grouped = {i for grp in level for i in grp}
        ride = [i for i in order if i not in grouped]
        ride_at = [at[i] for i in ride]
        carry.append(_as_slice(_runs(ride_at, [h[i] for i in ride])) if ride else None)
        for grp in level:
            h[grp[0]] = min(sum(h[i] for i in grp), width)
        order = [level[p][0] for b in batches for p in b.positions] + ride
        levels.append(tuple(batches))
    return PanelSchedule(
        height=height,
        width=width,
        block_rows=block_rows,
        tree=tree,
        ranges=ranges,
        l0_count=nb - (tail is not None),
        l0_h=block_rows if nb > 1 else height,
        tail=tail,
        levels=tuple(levels),
        carry=tuple(carry),
    )


def factor_panel(
    sched: PanelSchedule, S: np.ndarray, structured: bool = False, home: np.ndarray | None = None
) -> tuple[np.ndarray, _WyPlan]:
    """Factor the ``(r, height, width)`` stack ``S`` of ``r`` panels on ``sched``.

    Every slice (level-0 block, ragged tail, tree node) of every panel
    is factored by the shared kernel
    (:func:`~repro.smallblas.wy._factor_slices`), which copies each
    slice and picks its algorithm from the slice shape alone, so slice
    ``i`` of the stack gets the bits panel ``i`` gets alone.  Level 0 is
    one kernel call (a strided view of ``S`` when ``r = 1``), the tail
    one more, and each tree batch one, reading its stacked Rs as a view
    of the previous level's output.  ``structured`` eliminates each tree
    group with :func:`structured_stack_qr` instead, and the batch's
    entry stacks the groups' reflectors as compact-WY factors.

    Returns ``(R, plan)``: the ``(r, min(height, width), width)``
    upper-trapezoidal Rs and the apply plan.  A level's R stack is read
    only by the next level, so none outlives the call.

    ``home`` (``r = 1`` and ``height >= width`` only) is the C-contiguous
    ``(height, width)`` buffer Q will be formed in: the level-0 slices
    that the kernel factors with ``geqrt`` are factored there, slice
    ``i``'s packed ``(width, h)`` output in exactly the elements of Q's
    rows ``[i h, (i + 1) h)``, and the tail's in the rows after them.
    The plan records it, and :meth:`TSQRFactors.form_q` into ``home``
    forms Q over them (:func:`_plan_form_q`).
    """
    r, _, w = S.shape
    c, h = sched.l0_count, sched.l0_h
    flat = None if home is None else home.reshape(-1)
    homed = (
        flat is not None and takes_geqrt(h, w),
        flat is not None and sched.tail is not None and takes_geqrt(sched.tail[1], w),
    )
    args = {"blocks": len(sched.ranges), "block_rows": h, "stack": r}
    with _obs.span("tsqr.level0", cat="factor.level0", **args):
        V0, T0, R0, _ = _factor_slices(
            S[:, : c * h].reshape(r * c, h, w), flat[: c * h * w] if homed[0] else None
        )
        slab = R0.reshape(r, -1, w)
        tail = []
        if sched.tail is not None:
            s, ht = sched.tail
            Vt, Tt, Rt, _ = _factor_slices(S[:, s:], flat[s * w :] if homed[1] else None)
            tail.append((s, ht, Vt, Tt))
            slab = np.concatenate([slab, Rt], axis=1)
    levels = []
    for batches, ride in zip(sched.levels, sched.carry):
        entries, outs = [], []
        with _obs.span("tsqr.tree", cat="factor.tree", batches=len(batches), **args):
            for b in batches:
                src = slab[:, b.src].reshape(r * len(b.positions), sum(b.heights), w)
                if structured:
                    offs = np.cumsum((0,) + b.heights)
                    sfs = [
                        structured_stack_qr([grp[a:e] for a, e in zip(offs[:-1], offs[1:])])
                        for grp in src
                    ]
                    Vl, taul = (np.stack(a) for a in zip(*(sf.dense_reflectors() for sf in sfs)))
                    Tl = larft(Vl, taul)
                    Rl = np.stack([sf.R for sf in sfs])
                else:
                    Vl, Tl, Rl, _ = _factor_slices(src)
                entries.append((b.idx, Vl, Tl))
                outs.append(Rl.reshape(r, -1, w))
            if ride is not None:
                outs.append(slab[:, ride])
            slab = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
        levels.append(entries)
    plan = _WyPlan(
        dtype=np.dtype(S.dtype), l0_count=c, l0_h=h, l0_V=V0, l0_T=T0, l0_tail=tail,
        levels=levels, home=home if any(homed) else None, homed=homed,
    )
    return slab, plan


def merge_rs(Rs: list[np.ndarray], starts: list[int]) -> tuple[np.ndarray, tuple]:
    """Merge the stacked upper-trapezoidal ``Rs`` as one tree node.

    A tree merge outside a panel schedule (the sharded fan-in rounds,
    the streaming folds), on the shared slice kernel.  As in a panel's
    tree, each R lies in the top rows of its row block: ``R_i`` in the
    rows from ``starts[i]`` on, and the merged R lands in the first
    member's.  Returns the merged ``min(H, n) x n`` R and the tree entry
    ``(idx, V, T)``, with ``idx`` the global rows of the stack, which
    :func:`apply_merges` applies.
    """
    idx = _runs(starts, [R.shape[0] for R in Rs])[None]
    V, T, R, _ = _factor_slices(np.concatenate(Rs)[None])
    return R[0], (idx, V, T)


def apply_merges(levels: list[list[tuple]], B: np.ndarray, transpose: bool) -> None:
    """Apply the Q^T (``transpose``: the levels in order) or Q (in reverse)
    of :func:`merge_rs` entries to the 2-D ``B`` in place.  A ``B`` of
    another dtype gets per-call casts of the factors."""
    S = B[None]
    for entries in levels if transpose else levels[::-1]:
        _plan_apply_level(_cast_entries(entries, B.dtype), S, transpose)


def _cast_entries(entries: list[tuple], dt: np.dtype) -> list[tuple]:
    """A tree level's entries in dtype ``dt`` (the same arrays when they are)."""
    return [(idx, V.astype(dt, copy=False), T.astype(dt, copy=False)) for idx, V, T in entries]


def _convert_plan(src: _WyPlan, dt: np.dtype) -> _WyPlan:
    """An apply plan's copy in another working dtype (arrays cast)."""
    return replace(
        src,
        dtype=dt,
        home=None,
        homed=(False, False),
        l0_V=None if src.l0_V is None else src.l0_V.astype(dt),
        l0_T=None if src.l0_T is None else src.l0_T.astype(dt),
        l0_tail=[(s, h, V.astype(dt), T.astype(dt)) for s, h, V, T in src.l0_tail],
        levels=[_cast_entries(entries, dt) for entries in src.levels],
    )


def _plan_apply_level0(plan: _WyPlan, S: np.ndarray, transpose: bool) -> None:
    """Level-0 compact-WY application (``apply_qt_h``), batched."""
    if _obs.enabled():
        with _obs.span("apply.level0", cat="apply.level0", cols=int(S.shape[2])):
            _plan_apply_level0_impl(plan, S, transpose)
        return
    _plan_apply_level0_impl(plan, S, transpose)


def _plan_apply_level0_impl(plan: _WyPlan, S: np.ndarray, transpose: bool) -> None:
    r, _, w = S.shape
    c, h = plan.l0_count, plan.l0_h
    if c:
        seg = S[:, : c * h]
        if r == 1 or seg.strides[0] == c * h * seg.strides[1]:
            # Zero-copy: GEMM reads/writes straight through the strided
            # view of every request's blocks — no gather, no scatter.
            apply_wy(plan.l0_V, plan.l0_T, seg.reshape(r * c, h, w), transpose=transpose)
        else:
            # The requests' blocks are not one strided run: a view per
            # request, so each block keeps the strides it has alone.
            for i in range(r):
                j = slice(i * c, (i + 1) * c)
                apply_wy(plan.l0_V[j], plan.l0_T[j], seg[i].reshape(c, h, w), transpose=transpose)
    for start, ht, Vt, Tt in plan.l0_tail:
        apply_wy(Vt, Tt, S[:, start : start + ht], transpose=transpose)


def apply_wy_plan(plan: _WyPlan, B: np.ndarray, transpose: bool) -> None:
    """Apply a planned implicit Q (``transpose=True`` for Q^T) to ``B`` in place.

    The whole batched application pipeline — level 0 through the tree
    levels for Q^T, the reverse for Q — shared by TSQR's factors, the
    look-ahead driver's trailing updates and the serving coalescer.
    ``B`` is ``(h, w)`` for the plan of one panel, or ``(r, h, w)`` for
    the plan of an ``r``-stack (:func:`factor_panel`), request ``i``'s
    rows in ``B[i]``.

    :func:`~repro.smallblas.wy.apply_wy`'s bits depend on its operands'
    strides, so the layout each slice reaches it with is fixed for any
    ``r``: level-0 blocks and the tail as strided views of ``B``'s rows,
    tree nodes as C-contiguous gathers.  Slice ``i`` of a stacked apply
    therefore equals the apply of request ``i`` alone, bit for bit.
    """
    S = B if B.ndim == 3 else B[None]
    if transpose:
        _plan_apply_level0(plan, S, transpose=True)
        for entries in plan.levels:
            _plan_apply_level(entries, S, transpose=True)
    else:
        for entries in reversed(plan.levels):
            _plan_apply_level(entries, S, transpose=False)
        _plan_apply_level0(plan, S, transpose=False)


def _plan_form_q(
    plan: _WyPlan, m: int, k: int, out: np.ndarray | None = None, over: bool = False
) -> np.ndarray:
    """Explicit thin ``(r, m, k)`` Qs from the apply plan of an ``r``-stack,
    as LAPACK ``orgqr`` forms them, in ``out`` when given (C-contiguous).

    Q is the implicit Q applied to ``[I_k; 0]``, and until level 0 every
    nonzero row of that product lies in the top rows of a level-0 block:
    the identity starts in block 0's, and the tree only touches the R
    rows its merges stacked.  So the tree's reflectors run on a small
    stack of those top rows, and each level-0 block is then formed in
    one pass that writes its rows of Q (:func:`orgqr_wy`), instead of
    applying the block's reflectors to an ``h``-row slab of mostly zeros.
    Every request's slices reach :func:`orgqr_wy`, which forms them one
    by one, with the layout they have alone, so ``Q[i]`` is request
    ``i``'s Q bit for bit, and every block of Q is written in place,
    so a caller's ``out`` gets the bits a new array would.

    ``over`` says ``out`` is the buffer the level-0 reflectors were
    factored in (``plan.home``, a stack of one), as LAPACK ``orgqr``
    forms Q in the storage of ``geqrf``'s reflectors.  Each block whose
    V lives there is then formed from a copy of that V alone, made with
    V's Fortran layout in one block-sized buffer that is freed on
    return, just before its rows of Q overwrite it: the GEMMs read the
    same operands, so Q has the same bits, and no second ``m x k``
    array is needed.  The plan's reflectors are gone afterwards.
    """
    count, h = plan.l0_count, plan.l0_h
    r = plan.l0_V.shape[0] // count
    starts = np.array(
        [i * h for i in range(count)] + [s for s, _, _, _ in plan.l0_tail], dtype=np.intp
    )
    # Block 0 is the tallest, so its R height bounds every block's top rows.
    r_max = plan.l0_V.shape[2]
    top = np.zeros((r, len(starts), r_max, k), dtype=plan.dtype)
    diag = np.arange(min(r_max, k))
    top[:, 0, diag, diag] = 1.0
    flat = top.reshape(r, -1, k)
    for entries in reversed(plan.levels):
        for idx, V, T in entries:
            blk = np.searchsorted(starts, idx, side="right") - 1
            pos = blk * r_max + (idx - starts[blk])
            sub = np.ascontiguousarray(flat[:, pos]).reshape(-1, *pos.shape[1:], k)
            flat[:, pos] = orgqr_wy(V, T, sub, np.empty_like(sub)).reshape(r, *pos.shape, k)
    Q = np.empty((r, m, k), dtype=plan.dtype) if out is None else out
    l0_over, tail_over = (over and homed for homed in plan.homed)
    for i in range(r):
        j = slice(i * count, (i + 1) * count)
        _orgqr_blocks(
            plan.l0_V[j], plan.l0_T[j], top[i, :count], Q[i, : count * h].reshape(count, h, k),
            l0_over,
        )
    for start, ht, Vt, Tt in plan.l0_tail:
        _orgqr_blocks(Vt, Tt, top[:, count, : Vt.shape[2]], Q[:, start : start + ht], tail_over)
    return Q


def _orgqr_blocks(V, T, C, out, over: bool) -> None:
    """:func:`orgqr_wy` into ``out``; with ``over``, each slice of ``V``
    lives in its slice of ``out`` and is copied out just before that
    slice is written, into one buffer with the Fortran layout of
    ``geqrt``'s slices."""
    if not over:
        orgqr_wy(V, T, C, out)
        return
    _, h, k = V.shape
    Vi = np.empty((1, k, h), dtype=V.dtype).transpose(0, 2, 1)
    for i in range(V.shape[0]):
        np.copyto(Vi[0], V[i])
        orgqr_wy(Vi, T[i : i + 1], C[i : i + 1], out[i : i + 1])


def _plan_apply_level(entries: list[tuple], S: np.ndarray, transpose: bool) -> None:
    """One tree level (``apply_qt_tree``): gather, batched WY, scatter."""
    if _obs.enabled():
        with _obs.span("apply.tree", cat="apply.tree", cols=int(S.shape[2])):
            _plan_apply_level_impl(entries, S, transpose)
        return
    _plan_apply_level_impl(entries, S, transpose)


def _plan_apply_level_impl(entries: list[tuple], S: np.ndarray, transpose: bool) -> None:
    w = S.shape[2]
    for idx, V, T in entries:
        # C-contiguous (r, groups, H, w).  S[:, idx] lays the request
        # axis innermost, which changes the slices' strides when r > 1
        # (a no-op copy when r = 1); np.take would first copy all of S.
        sub = np.ascontiguousarray(S[:, idx])
        apply_wy(V, T, sub.reshape(len(V), idx.shape[1], w), transpose=transpose)
        S[:, idx] = sub


class TSQRFactors:
    """Implicit Q of a TSQR factorization.

    Supports applying Q/Q^T to any conformal matrix (this is exactly the
    paper's trailing-matrix update: ``apply_qt_h`` for the level-0 factors
    and ``apply_qt_tree`` for the tree factors) and forming the explicit
    thin Q (the SORGQR-equivalent).

    Q is held in one form, the panel engine's apply plan (``plan``, a
    :class:`_WyPlan` in R's working dtype), applied by
    :func:`apply_wy_plan`; a ``B`` of another dtype gets a cast copy of
    the plan, made per call and dropped with it.  :mod:`repro.io`
    archives the plan as it is.

    A factorization whose level-0 reflectors were factored in Q's buffer
    (``factor_panel(home=)``) is spent once ``form_q`` forms Q in that
    buffer: Q has overwritten the reflectors, and every later apply,
    ``form_q`` or read of ``plan`` raises ``ValueError``.
    """

    def __init__(self, m: int, n: int, tree: TreeSchedule, R: np.ndarray, plan: _WyPlan) -> None:
        self.m = m
        self.n = n
        self.tree = tree
        self.R = R  # final min(m, n) x n upper-triangular factor
        self._plan: _WyPlan | None = plan
        self._spent = False

    @property
    def plan(self) -> _WyPlan:
        """The apply plan, in R's working dtype."""
        self._live()
        return self._plan

    def _live(self) -> None:
        if self._spent:
            raise ValueError(
                "TSQRFactors: the reflectors were overwritten: Q was formed in the "
                "buffer they were factored in; factor the matrix again"
            )

    # -- internal helpers -------------------------------------------------

    def _plan_for(self, dt: np.dtype) -> _WyPlan:
        """Apply plan for working dtype ``dt`` (another dtype's: a cast copy)."""
        plan = self.plan
        return plan if plan.dtype == dt else _convert_plan(plan, dt)

    def _apply(self, B: np.ndarray, transpose: bool) -> np.ndarray:
        B = as_float_array(B)
        if B.shape[0] != self.m:
            raise ValueError(f"B must have {self.m} rows, got {B.shape[0]}")
        W = B[:, None] if B.ndim == 1 else B  # view: updates land in B
        apply_wy_plan(self._plan_for(W.dtype), W, transpose=transpose)
        return B

    # -- public API --------------------------------------------------------

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q^T B`` in place (B must have ``m`` rows)."""
        return self._apply(B, transpose=True)

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        """Compute ``Q B`` in place (B must have ``m`` rows)."""
        return self._apply(B, transpose=False)

    def form_q(self, out: np.ndarray | None = None) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q.

        Q is formed as LAPACK ``orgqr`` forms it (:func:`_plan_form_q`),
        on the BLAS that factored it when SciPy's binding is importable,
        so it equals ``apply_q(I)`` to roundoff, not bit for bit.
        ``out`` (C-contiguous, Q's shape and dtype,
        :func:`~repro.core.dtypes.q_buffer`) receives Q with the same
        bits and is returned; no other ``m x k`` array is allocated.
        When ``out`` is the buffer the level-0 reflectors were factored
        in, Q is formed over them (the span's ``in_place``), and the
        factors are spent.
        """
        plan = self.plan
        k = min(self.m, self.n)
        over = out is not None and out is plan.home
        with _obs.span(
            "tsqr.form_q", cat="form_q", m=self.m, n=self.n, blas=blas_name(plan.dtype),
            in_place=over,
        ):
            Q = q_buffer(out, self.m, k, plan.dtype)
            if k:
                _plan_form_q(plan, self.m, k, Q[None], over)
            if over:
                self._spent = True
                self._plan = None
            return Q


def _tsqr_impl(
    A: np.ndarray,
    block_rows: int,
    tree_shape: str,
    structured: bool,
    home: np.ndarray | None = None,
) -> TSQRFactors:
    """Factor an *already validated* matrix with TSQR (no guard layer).

    Internal callers (the randomized-SVD range finder) come in here
    directly: the matrix was validated exactly once at the public entry
    point, so this path never re-scans it.  It is the panel engine on a
    stack of one, with ``home`` (a tall matrix only) the buffer Q will
    be formed in (:func:`factor_panel`).
    """
    m, n = A.shape
    if m == 0 or n == 0:
        # No reflectors: Q is the identity and R is empty, in
        # np.linalg.qr's reduced shapes.
        dt = np.dtype(working_dtype(A))
        return TSQRFactors(
            m=m, n=n, tree=build_tree(0, tree_shape), R=np.zeros((min(m, n), n), dtype=dt),
            plan=_WyPlan(dtype=dt),
        )
    # Every level-0 R must be a full n x n triangle so the final R lands
    # contiguously in the first block (see level0_rows).
    block_rows = level0_rows(block_rows, n)
    sched = panel_schedule(m, n, block_rows, tree_shape)
    R, plan = factor_panel(sched, A[None], structured, home)
    return TSQRFactors(m=m, n=n, tree=sched.tree, R=R[0], plan=plan)


def _tsqr(
    A: np.ndarray, policy: ExecutionPolicy | None, q_home: bool = False
) -> tuple[TSQRFactors, np.ndarray | None]:
    """Validate ``A`` and factor it; with ``q_home``, on a tall matrix,
    also allocate Q's buffer once the guard scan is done and factor the
    level-0 reflectors into it.  Returns the factors and that buffer (or
    ``None``)."""
    from repro.verify.guards import validate_matrix

    policy = policy if policy is not None else ExecutionPolicy()
    with _obs.maybe_trace(policy.trace):
        A = validate_matrix(A, where="tsqr", nonfinite=policy.nonfinite)
        m, n = A.shape
        home = None
        if q_home and m >= n > 0:
            home = np.empty((m, n), dtype=A.dtype)
        with _obs.span("tsqr", cat="factor", m=m, n=n, path=policy.path):
            f = _tsqr_impl(
                A,
                block_rows=policy.block_rows,
                tree_shape=policy.tree_shape,
                structured=policy.uses_structured,
                home=home,
            )
        return f, home


def tsqr(A: np.ndarray, *, policy: ExecutionPolicy | None = None) -> TSQRFactors:
    """Factor a tall-skinny matrix with TSQR (Figure 2).

    Args:
        A: ``m x n`` matrix (any aspect ratio is accepted; TSQR pays off
            for ``m >> n``).
        policy: the execution policy (default ``ExecutionPolicy()``).
            TSQR reads its level-0 ``block_rows`` (unset or below ``n``
            gets ``32 * n``-row blocks, :func:`level0_rows`), its
            ``tree_shape`` (see :mod:`repro.core.tree`), its ``nonfinite``
            guard, and whether its path is structured (the
            sparsity-exploiting stacked-triangle elimination, ~3x fewer
            tree flops).

    Returns:
        A :class:`TSQRFactors` holding the implicit Q and the final R.
    """
    return _tsqr(A, policy)[0]


def tsqr_qr(
    A: np.ndarray, *, policy: ExecutionPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Convenience: explicit thin ``(Q, R)`` via TSQR.

    The factors are discarded, so on a tall matrix the level-0
    reflectors are factored in Q's buffer and Q is formed over them: one
    ``m x n`` array, with the bits of ``tsqr(A).form_q()``.
    """
    f, home = _tsqr(A, policy, q_home=True)
    return f.form_q(out=home), f.R
