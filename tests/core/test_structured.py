"""Tests of the structured stacked-triangle elimination (Figure 2(c))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.structured import (
    dense_tree_flops,
    structured_stack_qr,
    structured_tree_flops,
)
from repro.core.tsqr import tsqr, tsqr_qr
from repro.core.validation import (
    factorization_error,
    orthogonality_error,
    sign_canonical,
)
from repro.runtime import ExecutionPolicy


def triangles(rng, q, n, dtype=np.float64):
    return [np.triu(rng.standard_normal((n, n)).astype(dtype)) for _ in range(q)]


class TestStructuredStackQR:
    @pytest.mark.parametrize("q,n", [(2, 8), (4, 16), (8, 5), (3, 1)])
    def test_r_matches_dense_elimination(self, rng, q, n):
        rs = triangles(rng, q, n)
        f = structured_stack_qr(rs)
        dense = np.linalg.qr(np.vstack(rs), mode="r")[:n]
        assert np.allclose(np.abs(np.diag(f.R)), np.abs(np.diag(dense)), atol=1e-10)

    def test_q_reconstructs_stack(self, rng):
        rs = triangles(rng, 4, 10)
        f = structured_stack_qr(rs)
        # Apply Q to [R; 0]: must reproduce the original stack.
        E = np.vstack([f.R, np.zeros((f.total_rows - 10, 10))])
        got = f.apply_q(E)
        assert np.allclose(got, np.vstack(rs), atol=1e-11)

    def test_qt_annihilates_below_r(self, rng):
        rs = triangles(rng, 3, 7)
        f = structured_stack_qr(rs)
        out = f.apply_qt(np.vstack(rs))
        assert np.allclose(np.triu(out[:7]), f.R, atol=1e-11)
        assert np.linalg.norm(out[7:]) < 1e-10

    def test_qt_q_roundtrip(self, rng):
        rs = triangles(rng, 4, 6)
        f = structured_stack_qr(rs)
        B = rng.standard_normal((f.total_rows, 3))
        out = f.apply_q(f.apply_qt(B.copy()))
        assert np.allclose(out, B, atol=1e-11)

    def test_flop_savings_about_3x(self, rng):
        rs = triangles(rng, 4, 16)
        f = structured_stack_qr(rs)
        assert f.flops < 0.4 * dense_tree_flops(4, 16)
        assert f.flops == pytest.approx(structured_tree_flops(4, 16))

    def test_trapezoidal_members(self, rng):
        rs = [np.triu(rng.standard_normal((8, 8))), rng.standard_normal((3, 8))]
        rs[1] = np.triu(rs[1])
        f = structured_stack_qr(rs)
        dense = np.linalg.qr(np.vstack(rs), mode="r")[:8]
        assert np.allclose(np.abs(np.diag(f.R)), np.abs(np.diag(dense)), atol=1e-10)

    def test_reflector_support_is_sparse(self, rng):
        rs = triangles(rng, 4, 16)
        f = structured_stack_qr(rs)
        # Column 0's reflector touches only 1 + 3*1 = 4 rows.
        assert f.reflectors[0].rows.size == 4
        # Column 15's touches 1 + 3*16 = 49 rows (< 64 dense rows).
        assert f.reflectors[15].rows.size == 49

    def test_float32_preserved(self, rng):
        rs = triangles(rng, 2, 6, dtype=np.float32)
        f = structured_stack_qr(rs)
        assert f.R.dtype == np.float32

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            structured_stack_qr([])
        with pytest.raises(ValueError):
            structured_stack_qr([np.zeros((4, 4)), np.zeros((4, 5))])
        with pytest.raises(ValueError):
            # first R too short to carry the pivots
            structured_stack_qr([np.zeros((2, 5)), np.zeros((5, 5))])
        f = structured_stack_qr(triangles(rng, 2, 4))
        with pytest.raises(ValueError):
            f.apply_qt(np.zeros((3, 1)))


class TestStructuredTSQR:
    def test_same_factorization_as_dense(self, rng):
        A = rng.standard_normal((640, 16))
        Qs, Rs = tsqr_qr(A, policy=ExecutionPolicy(path="structured", block_rows=64))
        Qd, Rd = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        _, Rsc = sign_canonical(Qs, Rs)
        _, Rdc = sign_canonical(Qd, Rd)
        assert np.allclose(Rsc, Rdc, atol=1e-10)
        assert orthogonality_error(Qs) < 1e-12
        assert factorization_error(A, Qs, Rs) < 1e-13

    def test_apply_qt_consistent(self, rng):
        A = rng.standard_normal((320, 8))
        fs = tsqr(A, policy=ExecutionPolicy(path="structured", block_rows=32))
        fd = tsqr(A, policy=ExecutionPolicy(block_rows=32))
        B = rng.standard_normal((320, 4))
        # Q differs only by signs; Q^T Q = I for compositions of each.
        out = fs.apply_q(fs.apply_qt(B.copy()))
        assert np.allclose(out, B, atol=1e-11)
        assert np.allclose(np.abs(np.diag(fs.R)), np.abs(np.diag(fd.R)), atol=1e-10)

    @pytest.mark.parametrize("shape", ["binary", "quad", "binomial"])
    def test_all_tree_shapes(self, rng, shape):
        A = rng.standard_normal((500, 12))
        policy = ExecutionPolicy(path="structured", block_rows=32, tree_shape=shape)
        Q, R = tsqr_qr(A, policy=policy)
        assert factorization_error(A, Q, R) < 1e-12

    def test_caqr_structured(self, rng):
        from repro.core.caqr import caqr_qr

        A = rng.standard_normal((200, 48))
        Q, R = caqr_qr(A, policy=ExecutionPolicy(path="structured", panel_width=16, block_rows=32))
        assert factorization_error(A, Q, R) < 1e-12
        assert orthogonality_error(Q) < 1e-12


class TestStructuredCostModel:
    def test_structured_flops_formula(self):
        # q=4, n=16: ratio ~ 1/3.
        assert 0.25 <= structured_tree_flops(4, 16) / dense_tree_flops(4, 16) <= 0.4

    def test_simulated_caqr_faster_with_structured_tree(self):
        from repro.caqr_gpu import simulate_caqr
        from repro.kernels.config import REFERENCE_CONFIG

        dense = simulate_caqr(500_000, 192)
        struct = simulate_caqr(500_000, 192, REFERENCE_CONFIG.with_(structured_tree=True))
        assert struct.seconds < dense.seconds
        bd, bs = dense.breakdown(), struct.breakdown()
        assert bs["factor_tree"] < bd["factor_tree"]
        assert bs["apply_qt_tree"] < bd["apply_qt_tree"]
        # Non-tree kernels unchanged.
        assert bs["apply_qt_h"] == pytest.approx(bd["apply_qt_h"])
