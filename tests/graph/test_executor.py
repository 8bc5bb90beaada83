"""Look-ahead driver: correctness vs the per-node reference CAQR, bit-identity contracts."""

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.tsqr import level0_rows
from repro.graph.executor import build_lookahead_schedule, run_lookahead_schedule
from repro.runtime import ExecutionPolicy
from tests import reference_qr

SHAPES = [
    ((1000, 50), {}),
    ((257, 48), {}),  # ragged last block
    ((120, 200), {}),  # wide
    ((63, 17), {}),  # single panel-ish, shorter than block_rows
    ((500, 40), {"tree_shape": "binomial"}),
    ((500, 40), {"tree_shape": "flat"}),
    ((130, 10), {"panel_width": 7, "block_rows": 8}),  # tiny ragged tail
    # The default geometry's 512-row geqrt blocks: a 4-row first-panel
    # tail (generic TSQR fallback), a 500-row ragged tail, an 8-wide
    # last panel with 256-row gufunc blocks.
    ((4100, 40), {}),
]


def _lookahead(A, **fields):
    """The look-ahead driver on one matrix: schedule, then run."""
    policy = ExecutionPolicy(path="lookahead", **fields)
    sched = build_lookahead_schedule(*A.shape, policy)
    return run_lookahead_schedule(sched, A)


# An unset width is one full-width panel on a tall matrix (no trailing
# update); the multi-panel tests below pin the paper's 16.  The one-panel
# default is pinned against tsqr_qr in tests/runtime/test_plan.py.
MULTI = {"panel_width": 16}


def _residuals(A, f):
    Q = f.form_q()
    resid = np.linalg.norm(Q @ f.R - A) / np.linalg.norm(A)
    orth = np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))
    return resid, orth


@pytest.mark.parametrize("shape,kw", SHAPES)
def test_matches_serial_batched(shape, kw):
    rng = np.random.default_rng(7)
    A = rng.standard_normal(shape)
    kw = {**MULTI, **kw}
    f = _lookahead(A, **kw)
    ref = caqr(A, policy=ExecutionPolicy(**kw))
    resid, orth = _residuals(A, f)
    assert resid < 1e-13
    assert orth < 1e-12
    assert np.max(np.abs(f.R - ref.R)) < 1e-14 * np.linalg.norm(A)


def test_apply_qt_apply_q_match_reference():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((800, 64))
    B = rng.standard_normal((800, 5))
    f = _lookahead(A, **MULTI)
    ref = reference_qr.caqr(A, **MULTI)
    assert np.max(np.abs(f.apply_qt(B.copy()) - ref.apply_qt(B.copy()))) < 1e-12
    assert np.max(np.abs(f.apply_q(B.copy()) - ref.apply_q(B.copy()))) < 1e-12
    # 1-D right-hand side round-trips like the reference factors.
    b = rng.standard_normal(800)
    out = f.apply_q(f.apply_qt(b.copy()))
    assert np.allclose(out, b)


def test_float32_supported():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((500, 60)).astype(np.float32)
    f = _lookahead(A)
    assert f.R.dtype == np.float32
    Q = f.form_q()
    assert Q.dtype == np.float32
    assert np.linalg.norm(Q @ f.R - A) / np.linalg.norm(A) < 1e-5


def test_plumbed_through_caqr():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((400, 60))
    f = caqr(A, policy=ExecutionPolicy(path="lookahead"))
    resid, orth = _residuals(A, f)
    assert resid < 1e-13 and orth < 1e-12
    # caqr runs the same schedule: bit-identical to the driver itself.
    direct = _lookahead(A)
    assert np.array_equal(f.R, direct.R)
    assert np.array_equal(f.form_q(), direct.form_q())


def test_bad_inputs():
    rng = np.random.default_rng(23)
    lookahead = ExecutionPolicy(path="lookahead")
    with pytest.raises(ValueError):
        caqr(rng.standard_normal(8), policy=lookahead)
    with pytest.raises(ValueError):
        ExecutionPolicy(path="lookahead", panel_width=0)
    with pytest.raises(ValueError, match="does not match the scheduled shape"):
        run_lookahead_schedule(build_lookahead_schedule(8, 4, lookahead), np.zeros((8, 5)))
    f = _lookahead(rng.standard_normal((64, 8)))
    with pytest.raises(ValueError):
        f.apply_qt(rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        f.apply_q(rng.standard_normal((5, 2)))


# The default (unset block_rows) geometry: 16-wide panels get 512-row
# level-0 blocks (8192 elements, so the shared kernel takes geqrt).
DEFAULT_SHAPE = (4100, 40)


def test_default_level0_rule_and_schedule():
    assert [level0_rows(None, w) for w in (1, 8, 16, 100)] == [32, 256, 512, 3200]
    sched = build_lookahead_schedule(*DEFAULT_SHAPE, ExecutionPolicy(path="lookahead", **MULTI))
    assert [(w, bh) for _, w, _, bh, _ in sched.panels] == [(16, 512), (16, 512), (8, 256)]
    # An explicit height at least the panel width is kept as given.
    sched = build_lookahead_schedule(
        *DEFAULT_SHAPE, ExecutionPolicy(path="lookahead", block_rows=64, **MULTI)
    )
    assert [bh for _, _, _, bh, _ in sched.panels] == [64, 64, 64]
    # Unset, the width is one 40-column panel with 32 widths per block.
    sched = build_lookahead_schedule(*DEFAULT_SHAPE, ExecutionPolicy(path="lookahead"))
    assert [(w, bh) for _, w, _, bh, _ in sched.panels] == [(40, 1280)]
    assert sched.panel_width == 40 and not sched.has_updates


@pytest.mark.parametrize("shape", [DEFAULT_SHAPE, (1000, 37)])
@pytest.mark.parametrize("block_rows", [None, 64])
def test_form_q_skipping_columns_matches_apply_q(shape, block_rows):
    """form_q applies each panel only right of its col_start; the skipped
    columns are exact zeros in the panel's rows, so Q is apply_q(I) up to
    the GEMM's blocking: at these two shapes bit for bit."""
    A = np.random.default_rng(31).standard_normal(shape)
    f = _lookahead(A, block_rows=block_rows, **MULTI)
    assert len(f.panels) > 1
    k = min(shape)
    assert np.array_equal(f.form_q(), f.apply_q(np.eye(shape[0], k)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "shape,block_rows,dtype",
    [((1041, 156), 256, np.float64), ((1702, 73), 16, np.float64), ((1702, 73), 16, np.float32)],
)
def test_form_q_skipping_columns_within_two_eps(shape, block_rows, dtype, seed):
    """The column-skipping form_q hands each panel's GEMMs fewer columns
    than apply_q(I) does, and a GEMM's blocking depends on the column
    count: at these shapes the two differ in the last bits (by up to
    0.9 eps on a 2-core Xeon with OpenBLAS), so the contract is 2 eps
    elementwise, not bit identity."""
    A = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    f = _lookahead(A, block_rows=block_rows, panel_width=32)
    Q = f.form_q()
    ref = f.apply_q(np.eye(shape[0], min(shape), dtype=dtype))
    assert np.abs(Q - ref).max() <= 2 * np.finfo(dtype).eps


def test_one_worker_factor_counts(monkeypatch):
    """A factor runs one panel factor per panel and one whole-width
    trailing update per panel with columns to its right: 4 and 3 at
    16384 x 64 with 16-wide panels, on batched and lookahead."""
    import repro.graph.executor as executor
    from repro.runtime import plan_qr

    counts = {"factor_panel": 0, "apply_wy_plan": 0}
    for name in counts:
        def spy(*a, _real=getattr(executor, name), _name=name, **k):
            counts[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(executor, name, spy)
    A = np.random.default_rng(3).standard_normal((16384, 64))
    for path in ("batched", "lookahead"):
        plan = plan_qr(*A.shape, policy=ExecutionPolicy(path=path, panel_width=16, block_rows=64))
        counts.update(factor_panel=0, apply_wy_plan=0)
        plan.factor(A)
        assert counts == {"factor_panel": 4, "apply_wy_plan": 3}, path
