"""Tests for the Section II background algorithms and the stability story.

The paper's justification for the Householder approach: "Cholesky QR and
the Gram-Schmidt process are not as numerically stable".  These tests make
that claim concrete by comparing loss of orthogonality across condition
numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cholesky_qr import cholesky_qr, cholesky_qr2
from repro.core.givens import (
    apply_givens,
    eliminate_stacked_triangles,
    givens_coeffs,
    givens_qr,
)
from repro.core.gram_schmidt import (
    RankDeficiencyError,
    cgs2,
    classical_gram_schmidt,
    modified_gram_schmidt,
)
from repro.core.householder import geqr2, extract_r
from repro.core.tsqr import tsqr_qr
from repro.core.triangular import SingularTriangularError
from repro.core.validation import factorization_error, orthogonality_error
from repro.runtime import ExecutionPolicy


class TestGivens:
    def test_coeffs_annihilate(self):
        c, s = givens_coeffs(3.0, 4.0)
        assert abs(-s * 3.0 + c * 4.0) < 1e-14
        assert abs(c * 3.0 + s * 4.0 - 5.0) < 1e-14

    def test_coeffs_edge_cases(self):
        assert givens_coeffs(1.0, 0.0) == (1.0, 0.0)
        assert givens_coeffs(0.0, 1.0) == (0.0, 1.0)

    def test_coeffs_no_overflow(self):
        c, s = givens_coeffs(1e200, 1e200)
        assert np.isfinite(c) and np.isfinite(s)

    def test_apply_rotation_orthogonal(self, rng):
        M = rng.standard_normal((4, 6))
        M0 = M.copy()
        c, s = givens_coeffs(2.0, 1.0)
        apply_givens(M, 0, 2, c, s)
        # Norms of the two rows are preserved jointly.
        assert np.isclose(
            np.linalg.norm(M[[0, 2]]), np.linalg.norm(M0[[0, 2]])
        )

    @pytest.mark.parametrize("m,n", [(10, 10), (20, 6), (6, 9)])
    def test_givens_qr_quality(self, rng, m, n):
        A = rng.standard_normal((m, n))
        Q, R = givens_qr(A)
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-13

    def test_stacked_triangle_elimination(self, rng):
        n = 8
        R1 = np.triu(rng.standard_normal((n, n)))
        R2 = np.triu(rng.standard_normal((n, n)))
        R, rots = eliminate_stacked_triangles(R1, R2)
        # Must agree with a dense QR of the stack, up to signs.
        VR, _ = geqr2(np.vstack([R1, R2]))
        R_dense = extract_r(VR)
        assert np.allclose(np.abs(np.diag(R)), np.abs(np.diag(R_dense)), atol=1e-10)
        # Structured elimination needs only n(n+1)/2 rotations.
        assert len(rots) <= n * (n + 1) // 2

    def test_stacked_triangle_shape_check(self):
        with pytest.raises(ValueError):
            eliminate_stacked_triangles(np.zeros((3, 3)), np.zeros((4, 4)))


class TestGramSchmidt:
    @pytest.mark.parametrize("fn", [classical_gram_schmidt, modified_gram_schmidt, cgs2])
    def test_well_conditioned(self, rng, fn):
        A = rng.standard_normal((60, 12))
        Q, R = fn(A)
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12

    @pytest.mark.parametrize("fn", [classical_gram_schmidt, modified_gram_schmidt, cgs2])
    def test_rank_deficiency_detected(self, rng, fn):
        col = rng.standard_normal((30, 1))
        A = np.hstack([col, col])
        with pytest.raises(RankDeficiencyError):
            fn(A)

    def test_r_upper_triangular(self, rng):
        _, R = modified_gram_schmidt(rng.standard_normal((20, 5)))
        assert np.allclose(np.tril(R, -1), 0.0)


class TestCholeskyQR:
    def test_well_conditioned(self, matrix_factory):
        A = matrix_factory(100, 10, cond=10.0)
        Q, R = cholesky_qr(A)
        assert factorization_error(A, Q, R) < 1e-12
        assert orthogonality_error(Q) < 1e-10

    def test_breaks_down_when_gram_is_indefinite(self, matrix_factory):
        # cond^2 = 1e16 >> 1/eps: Cholesky of A^T A must fail (or be junk).
        A = matrix_factory(100, 10, cond=1e9)
        with pytest.raises(SingularTriangularError):
            cholesky_qr(A)

    def test_requires_tall(self, rng):
        with pytest.raises(ValueError):
            cholesky_qr(rng.standard_normal((3, 5)))

    def test_cholqr2_fixes_moderate_conditioning(self, matrix_factory):
        A = matrix_factory(200, 8, cond=1e5)
        Q1, _ = cholesky_qr(A)
        Q2, R2 = cholesky_qr2(A)
        assert orthogonality_error(Q2) < 1e-13
        assert orthogonality_error(Q2) < orthogonality_error(Q1)
        assert factorization_error(A, Q2, R2) < 1e-12


class TestStabilityOrdering:
    """The Section II claim, quantified on an ill-conditioned matrix."""

    def test_householder_tsqr_beats_cgs_and_cholqr(self, matrix_factory):
        A = matrix_factory(300, 12, cond=1e6)
        err = {}
        Q, _ = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        err["tsqr"] = orthogonality_error(Q)
        Q, _ = classical_gram_schmidt(A)
        err["cgs"] = orthogonality_error(Q)
        Q, _ = modified_gram_schmidt(A)
        err["mgs"] = orthogonality_error(Q)
        Q, _ = cholesky_qr(A)
        err["cholqr"] = orthogonality_error(Q)
        # Householder stays at machine precision.
        assert err["tsqr"] < 1e-12
        # CGS and CholeskyQR lose orthogonality dramatically (~cond^2 * eps).
        assert err["cgs"] > 1e3 * err["tsqr"]
        assert err["cholqr"] > 1e3 * err["tsqr"]
        # MGS sits in between (~cond * eps).
        assert err["tsqr"] <= err["mgs"] <= err["cholqr"] * 10
