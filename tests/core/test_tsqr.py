"""Unit and integration tests for TSQR."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.core.tsqr import TALL_BLOCK_WIDTHS, level0_rows, row_blocks, tsqr, tsqr_qr
from repro.core.validation import (
    factorization_error,
    orthogonality_error,
    sign_canonical,
    triangularity_error,
)
from repro.graph.executor import build_lookahead_schedule
from repro.runtime import ExecutionPolicy
from repro.runtime.plan import plan_qr
from repro.serving.batch import _PanelPlan


class TestRowBlocks:
    def test_exact_division(self):
        assert row_blocks(128, 64) == [(0, 64), (64, 128)]

    def test_short_last_block(self):
        assert row_blocks(100, 64) == [(0, 64), (64, 100)]

    def test_single_block(self):
        assert row_blocks(30, 64) == [(0, 30)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            row_blocks(0, 64)
        with pytest.raises(ValueError):
            row_blocks(10, 0)


class TestTSQRFactorization:
    @pytest.mark.parametrize("tree_shape", ["binary", "quad", "binomial", "flat"])
    @pytest.mark.parametrize("m,n,br", [(256, 16, 64), (1000, 13, 64), (130, 16, 64), (64, 16, 64)])
    def test_qr_quality(self, rng, tree_shape, m, n, br):
        A = rng.standard_normal((m, n))
        Q, R = tsqr_qr(A, block_rows=br, tree_shape=tree_shape)
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12
        assert triangularity_error(R) == 0.0

    def test_r_matches_scipy_canonical(self, rng):
        A = rng.standard_normal((512, 24))
        Q, R = tsqr_qr(A, block_rows=64)
        R_sp = scipy.linalg.qr(A, mode="r")[0][:24]
        _, R_c = sign_canonical(Q, R)
        _, R_sp_c = sign_canonical(np.zeros((24, 24)), R_sp)
        assert np.allclose(R_c, R_sp_c, atol=1e-10)

    def test_block_rows_smaller_than_width_uses_tall_blocks(self, rng):
        # block_rows=8 < n=16: level-0 blocks of 32 * 16 = 512 rows.
        A = rng.standard_normal((2000, 16))
        f = tsqr(A, block_rows=8)
        assert [b.rows for b in f.blocks] == row_blocks(2000, 512)
        assert f.tree.n_levels == 1  # four blocks, one quad-tree merge
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) < 1e-13
        assert orthogonality_error(Q) < 1e-13

    def test_single_block_degenerates_to_geqr2(self, rng):
        A = rng.standard_normal((40, 10))
        f = tsqr(A, block_rows=64)
        assert f.tree.n_levels == 0
        assert len(f.blocks) == 1
        assert factorization_error(A, f.form_q(), f.R) < 1e-13

    def test_wide_matrix(self, rng):
        A = rng.standard_normal((10, 25))
        f = tsqr(A, block_rows=64)
        Q = f.form_q()
        assert Q.shape == (10, 10)
        assert f.R.shape == (10, 25)
        assert factorization_error(A, Q, f.R) < 1e-13

    def test_extreme_aspect_ratio(self, rng):
        # s-step Krylov territory: thousands of rows, < 10 columns.
        A = rng.standard_normal((5000, 4))
        Q, R = tsqr_qr(A, block_rows=64)
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12

    def test_m_equals_n(self, rng):
        A = rng.standard_normal((32, 32))
        Q, R = tsqr_qr(A, block_rows=16)
        assert factorization_error(A, Q, R) < 1e-13

    def test_one_column(self, rng):
        A = rng.standard_normal((300, 1))
        Q, R = tsqr_qr(A, block_rows=64)
        assert Q.shape == (300, 1)
        assert abs(abs(R[0, 0]) - np.linalg.norm(A)) < 1e-10

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            tsqr(rng.standard_normal(10))


class TestLevel0Height:
    def test_rule(self):
        assert TALL_BLOCK_WIDTHS == 32
        assert level0_rows(64, 16) == 64  # the paper's geometry
        assert level0_rows(16, 16) == 16
        assert level0_rows(15, 16) == 512
        assert level0_rows(64, 100) == 3200

    @pytest.mark.parametrize("m,n,br", [(1000, 16, 64), (100, 16, 16), (130, 16, 64)])
    def test_geometry_unchanged_when_block_rows_covers_width(self, rng, m, n, br):
        f = tsqr(rng.standard_normal((m, n)), block_rows=br)
        assert [b.rows for b in f.blocks] == row_blocks(m, br)

    @pytest.mark.parametrize("path", ["batched", "seed", "structured"])
    def test_ragged_tail_shorter_than_width(self, rng, path):
        # 512-row blocks leave a 10-row tail whose R is a 10 x 16 trapezoid.
        A = rng.standard_normal((1034, 16))
        f = tsqr(A, policy=ExecutionPolicy(path=path, block_rows=8))
        assert [b.rows for b in f.blocks] == [(0, 512), (512, 1024), (1024, 1034)]
        assert f.tree.n_levels == 1
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) < 1e-13
        assert orthogonality_error(Q) < 1e-13
        assert triangularity_error(f.R) == 0.0
        B = rng.standard_normal((1034, 5))
        assert np.allclose(f.apply_q(f.apply_qt(B.copy())), B, atol=1e-12)

    def test_paper_shape(self, rng):
        # 110592 x 100 with the default 64-row request: 34 blocks of 3200
        # rows plus a 1792-row tail, reduced by a three-level quad tree.
        A = rng.standard_normal((110592, 100))
        f = tsqr(A)
        assert len(f.blocks) == 35 and f.blocks[0].rows == (0, 3200)
        assert f.blocks[-1].rows == (108800, 110592)
        assert f.tree.n_levels == 3
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) <= 1e-14
        assert orthogonality_error(Q) <= 1e-13

    def test_plans_share_the_rule(self):
        # A 32-wide panel over 8-row requests: every planner sizes 1024-row blocks.
        policy = ExecutionPolicy(path="lookahead", panel_width=32, block_rows=8)
        plan = plan_qr(5000, 64, policy=policy)
        assert [p.block_rows for p in plan.panels] == [1024, 1024]
        sched = build_lookahead_schedule(5000, 64, policy)
        assert [bh for _, _, _, bh, _ in sched.panels] == [1024, 1024]
        assert _PanelPlan(0, 32, 5000, 8, "quad").ranges == row_blocks(5000, 1024)


class TestTSQRApply:
    def test_apply_qt_then_q_roundtrip(self, rng):
        A = rng.standard_normal((320, 12))
        f = tsqr(A, block_rows=64)
        B = rng.standard_normal((320, 7))
        out = f.apply_qt(B.copy())
        out = f.apply_q(out)
        assert np.allclose(out, B, atol=1e-12)

    def test_apply_qt_to_a_gives_r_on_top(self, rng):
        A = rng.standard_normal((256, 10))
        f = tsqr(A, block_rows=64)
        QtA = f.apply_qt(A.copy())
        assert np.allclose(np.triu(QtA[:10]), f.R, atol=1e-12)
        # Everything outside the distributed R rows is annihilated.
        assert np.linalg.norm(QtA[10:]) < 1e-10

    def test_apply_q_matches_explicit(self, rng):
        A = rng.standard_normal((192, 8))
        f = tsqr(A, block_rows=64)
        Q = f.form_q()
        B = rng.standard_normal((8, 5))
        expanded = np.vstack([B, np.zeros((192 - 8, 5))])
        got = f.apply_q(expanded.copy())
        assert np.allclose(got, Q @ B, atol=1e-12)

    def test_row_mismatch_raises(self, rng):
        f = tsqr(rng.standard_normal((128, 8)), block_rows=64)
        with pytest.raises(ValueError):
            f.apply_qt(np.zeros((64, 2)))

    def test_apply_is_in_place_view_safe(self, rng):
        A = rng.standard_normal((128, 6))
        f = tsqr(A, block_rows=64)
        big = rng.standard_normal((128, 10))
        view = big[:, 2:8]
        before = big[:, :2].copy()
        f.apply_qt(view)
        assert np.array_equal(big[:, :2], before)


class TestTreeShapeEquivalence:
    def test_all_shapes_same_r_up_to_signs(self, rng):
        A = rng.standard_normal((640, 16))
        rs = []
        for shape in ["binary", "quad", "binomial", "flat"]:
            Q, R = tsqr_qr(A, block_rows=64, tree_shape=shape)
            _, Rc = sign_canonical(Q, R)
            rs.append(Rc)
        for R in rs[1:]:
            assert np.allclose(R, rs[0], atol=1e-10)

    def test_quad_tree_group_arity_respects_paper(self, rng):
        # 64x16 blocks: 4 Rs fit per block -> quad groups.
        f = tsqr(rng.standard_normal((1024, 16)), block_rows=64, tree_shape="quad")
        for level in f.tree_factors:
            for tf in level:
                assert len(tf.group) <= 4
