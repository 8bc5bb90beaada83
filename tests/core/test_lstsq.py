"""Tests for the QR-based least-squares solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.lstsq import _solve_from_factors, lstsq_caqr, lstsq_tsqr, residual_norm
from repro.runtime import ExecutionPolicy
from repro.verify.fuzz import PATHS


def lstsq_sharded(A, b):
    """Through ``ShardedCAQRFactors``: Q^T applied in place on m rows."""
    return _solve_from_factors(caqr(A, policy=ExecutionPolicy(path="sharded", shards=3)), b)


def lstsq_streaming(A, b):
    """Through ``StreamingCAQRFactors``, 64-row chunks and a ragged tail."""
    return _solve_from_factors(caqr(A, policy=ExecutionPolicy(path="streaming", chunk_rows=64)), b)


class TestLstsq:
    @pytest.mark.parametrize("solver", [lstsq_tsqr, lstsq_caqr, lstsq_sharded, lstsq_streaming])
    def test_matches_numpy(self, rng, solver):
        A = rng.standard_normal((500, 15))
        b = rng.standard_normal(500)
        x = solver(A, b)
        x_np = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(x, x_np, atol=1e-9)

    @pytest.mark.parametrize("path", list(PATHS))
    def test_every_path_matches_numpy(self, rng, path):
        """``caqr`` through each engine-table path, thin-Q factors included."""
        A = rng.standard_normal((500, 15))
        b = rng.standard_normal((500, 2))
        policy = ExecutionPolicy(**PATHS[path])
        for rhs in (b, b[:, 0]):
            x = _solve_from_factors(caqr(A, policy=policy), rhs)
            assert np.allclose(x, np.linalg.lstsq(A, rhs, rcond=None)[0], atol=1e-9)

    @pytest.mark.parametrize("solver", [lstsq_tsqr, lstsq_caqr])
    def test_exact_solution_recovered(self, rng, solver):
        A = rng.standard_normal((200, 10))
        x_true = rng.standard_normal(10)
        b = A @ x_true
        x = solver(A, b)
        assert np.allclose(x, x_true, atol=1e-10)

    def test_multiple_rhs(self, rng):
        A = rng.standard_normal((100, 8))
        B = rng.standard_normal((100, 3))
        X = lstsq_tsqr(A, B)
        assert X.shape == (8, 3)
        X_np = np.linalg.lstsq(A, B, rcond=None)[0]
        assert np.allclose(X, X_np, atol=1e-9)

    def test_residual_orthogonal_to_range(self, rng):
        A = rng.standard_normal((80, 6))
        b = rng.standard_normal(80)
        x = lstsq_caqr(A, b, panel_width=4, block_rows=16)
        r = A @ x - b
        assert np.allclose(A.T @ r, 0.0, atol=1e-9)

    def test_residual_norm_helper(self, rng):
        A = rng.standard_normal((50, 4))
        x = np.zeros(4)
        b = rng.standard_normal(50)
        assert residual_norm(A, x, b) == pytest.approx(np.linalg.norm(b))

    def test_wide_rejected(self, rng):
        with pytest.raises(ValueError):
            lstsq_tsqr(rng.standard_normal((5, 10)), np.zeros(5))

    def test_polynomial_fit_regression(self, rng):
        # Realistic least-squares workload: fit a cubic through noisy data.
        t = np.linspace(-1, 1, 2000)
        A = np.vander(t, 4)
        coeffs = np.array([0.5, -1.0, 2.0, 3.0])
        b = A @ coeffs + 0.01 * rng.standard_normal(2000)
        x = lstsq_tsqr(A, b, block_rows=128)
        assert np.allclose(x, coeffs, atol=0.01)
