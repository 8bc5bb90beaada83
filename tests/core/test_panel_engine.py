"""TSQR's panel engine: one schedule per shape, any stack of panels.

``factor_panel`` on an ``(r, h, w)`` stack must give slice ``i`` exactly
what the panel gets alone, and ``apply_wy_plan`` on an ``(r, h, c)``
target exactly what the one-panel plan applies to ``B[i]``.  The second
half is the delicate one: ``apply_wy``'s bits depend on the strides of
the tiles it is handed, so every layout route (level-0 blocks merged
across requests or one view per request, the ragged tail, the tree
gathers) must present each request's tiles as the single-panel apply
does.  One-column targets (``n = 1 mod width`` in CAQR) are where a
layout slip shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tsqr import apply_wy_plan, factor_panel, panel_schedule, row_blocks
from repro.runtime import ExecutionPolicy, plan_qr
from repro.serving import ServingPlan, stacked_qr

# (height, width, block_rows, tree_shape): ragged tails (two thinner
# than the panel), one block, every tree shape.
GEOMETRIES = [
    (130, 16, 128, "arity:8"),  # 2-row tail, thinner than the panel
    (526, 16, 128, "arity:8"),  # 14-row tail
    (1034, 16, 512, "binary"),  # 10-row tail
    (4100, 40, 1280, "quad"),  # 260-row tail, geqrt blocks
    (700, 4, 64, "binomial"),  # 60-row tail, 11 blocks
    (96, 16, 32, "flat"),  # no tail
    (640, 16, 64, "quad"),  # no tail, two tree levels
    (63, 17, 544, "quad"),  # one block
]


@pytest.mark.parametrize("r", [2, 3, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("h,w,bh,tree", GEOMETRIES)
def test_stack_slice_equals_single_panel(h, w, bh, tree, cols, dtype, r):
    sched = panel_schedule(h, w, bh, tree)
    # The panel and its trailing columns share rows, as in CAQR's
    # working matrix: the targets are strided views of it.
    W = np.random.default_rng(h + w + r).standard_normal((r, h, w + cols)).astype(dtype)
    R, plan = factor_panel(sched, W[:, :, :w])
    assert R.shape == (r, min(h, w), w) and R.dtype == dtype
    for transpose in (True, False):
        stacked = W.copy()
        apply_wy_plan(plan, stacked[:, :, w:], transpose=transpose)
        Q = np.zeros((r, h, w), dtype)
        Q[:, np.arange(min(h, w)), np.arange(min(h, w))] = 1.0
        apply_wy_plan(plan, Q, transpose=transpose)
        for i in range(r):
            Ri, plan_i = factor_panel(sched, W[i : i + 1, :, :w])
            assert np.array_equal(R[i], Ri[0])
            alone = W[i].copy()
            apply_wy_plan(plan_i, alone[:, w:], transpose=transpose)
            assert np.array_equal(stacked[i, :, w:], alone[:, w:])
            Qi = np.zeros((h, w), dtype)
            Qi[np.arange(min(h, w)), np.arange(min(h, w))] = 1.0
            apply_wy_plan(plan_i, Qi, transpose=transpose)
            assert np.array_equal(Q[i], Qi)


def test_schedule_is_captured_once_per_shape():
    panel_schedule.cache_clear()
    a = panel_schedule(4100, 40, 1280, "quad")
    assert panel_schedule(4100, 40, 1280, "quad") is a
    info = panel_schedule.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert a.ranges == tuple(row_blocks(4100, 1280))
    assert (a.l0_count, a.l0_h, a.tail) == (3, 1280, (3840, 260))


def test_thin_tail_batches_by_height():
    """A tail thinner than the panel gets its own tree batch: its group
    stacks 16 + 10 rows, the full group 16 + 16 + 16 + 16."""
    sched = panel_schedule(2570, 16, 512, "quad")  # 5 blocks + a 10-row tail
    level = sched.levels[0]
    assert [b.heights for b in level] == [(16, 16, 16, 16), (16, 10)]
    assert [b.idx.shape for b in level] == [(1, 64), (1, 26)]
    assert level[1].idx[0].tolist() == [*range(2048, 2064), *range(2560, 2570)]


# Random serving geometries, weighted to one-column trailing updates.
_rng = np.random.default_rng(2011)
SERVING_CASES = []
for _ in range(24):
    pw = int(_rng.choice([4, 8, 16]))
    n = pw * int(_rng.integers(1, 3)) + int(_rng.choice([1, 1, 2, 5]))
    m = n + int(_rng.integers(0, 300))
    bh = int(_rng.choice([pw, 2 * pw, 64, 128]))
    tree = str(_rng.choice(["quad", "binary", "binomial", "flat", "arity:8"]))
    SERVING_CASES.append((m, n, pw, bh, tree))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("m,n,pw,bh,tree", SERVING_CASES)
def test_serving_stack_equals_plan(m, n, pw, bh, tree, dtype):
    policy = ExecutionPolicy(path="batched", panel_width=pw, block_rows=bh, tree_shape=tree)
    rng = np.random.default_rng(m * n)
    mats = [rng.standard_normal((m, n)).astype(dtype) for _ in range(3)]
    Q, R = stacked_qr(mats, ServingPlan(m, n, dtype, policy))
    plan = plan_qr(m, n, dtype, policy)
    for i, A in enumerate(mats):
        f = plan.factor(A)
        assert np.array_equal(Q[i], f.form_q())
        assert np.array_equal(R[i], f.R)
