"""Tests of the Robust PCA numerics (shrinkage, SVT, inexact ALM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rpca.ialm import rpca_ialm
from repro.rpca.shrinkage import shrink
from repro.rpca.svt import singular_value_threshold
from repro.rpca.video import generate_video


class TestShrink:
    def test_soft_threshold_values(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert np.allclose(shrink(x, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_scalar_input(self):
        assert shrink(2.0, 0.5) == 1.5
        assert shrink(-2.0, 0.5) == -1.5
        assert shrink(0.25, 0.5) == 0.0

    def test_zero_threshold_identity(self, rng):
        x = rng.standard_normal((4, 5))
        assert np.array_equal(shrink(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            shrink(np.zeros(3), -0.1)

    def test_shrink_is_contraction(self, rng):
        x = rng.standard_normal(100)
        assert np.all(np.abs(shrink(x, 0.3)) <= np.abs(x))

    def test_sparsifies(self, rng):
        x = rng.standard_normal(1000)
        assert np.count_nonzero(shrink(x, 1.0)) < np.count_nonzero(x)

    def test_matches_sign_times_clamped_magnitude(self, rng):
        x = rng.standard_normal((50, 20))
        x[0, :3] = [np.inf, -np.inf, np.nan]
        ref = np.sign(x) * np.maximum(np.abs(x) - 0.4, 0.0)
        assert np.array_equal(shrink(x, 0.4), ref, equal_nan=True)

    def test_input_untouched_and_signed_zeros(self):
        x = np.array([-0.0, 0.0, -0.2, 0.2, -1.5])
        before = x.copy()
        out = shrink(x, 0.5)
        assert np.array_equal(x, before) and np.array_equal(np.signbit(x), np.signbit(before))
        assert out.tolist() == [0.0, 0.0, 0.0, 0.0, -1.0]
        # -0.0 and negatives shrunk to zero keep their sign bit
        assert np.signbit(out).tolist() == [True, False, True, False, True]


class TestSVT:
    def test_large_threshold_zeroes(self, rng):
        X = rng.standard_normal((30, 10))
        L, rank = singular_value_threshold(X, 1e6)
        assert rank == 0
        assert np.allclose(L, 0.0)

    def test_zero_threshold_reconstructs(self, rng):
        X = rng.standard_normal((40, 8))
        L, rank = singular_value_threshold(X, 0.0)
        assert rank == 8
        assert np.allclose(L, X, atol=1e-9)

    def test_reduces_rank(self, rng):
        A = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 10))
        A += 0.01 * rng.standard_normal((50, 10))
        s = np.linalg.svd(A, compute_uv=False)
        L, rank = singular_value_threshold(A, float(s[3] * 1.5))
        assert rank == 3

    def test_nuclear_norm_decreases(self, rng):
        X = rng.standard_normal((20, 12))
        L, _ = singular_value_threshold(X, 0.5)
        assert np.linalg.svd(L, compute_uv=False).sum() < np.linalg.svd(X, compute_uv=False).sum()

    def test_custom_svd_engine(self, rng):
        X = rng.standard_normal((30, 6))
        calls = []

        def probe_svd(A):
            calls.append(A.shape)
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            return U, s, Vt

        singular_value_threshold(X, 0.1, svd=probe_svd)
        assert calls == [(30, 6)]

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(ValueError):
            singular_value_threshold(rng.standard_normal((5, 3)), -1.0)


class TestRPCA:
    def test_exact_recovery_low_rank_plus_sparse(self, rng):
        m, n, r = 120, 40, 2
        L0 = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        S0 = np.zeros((m, n))
        mask = rng.random((m, n)) < 0.05
        S0[mask] = 5.0 * rng.standard_normal(int(mask.sum()))
        M = L0 + S0
        res = rpca_ialm(M, tol=1e-7, max_iter=300)
        assert res.converged
        assert np.linalg.norm(res.L - L0) / np.linalg.norm(L0) < 1e-4
        assert np.linalg.norm(res.S - S0) / max(np.linalg.norm(S0), 1) < 1e-3

    def test_decomposition_sums_to_input(self, rng):
        M = rng.standard_normal((60, 20))
        res = rpca_ialm(M, max_iter=150)
        assert np.linalg.norm(M - res.L - res.S) / np.linalg.norm(M) < 1e-5

    def test_residuals_decrease_overall(self, rng):
        L0 = rng.standard_normal((80, 2)) @ rng.standard_normal((2, 30))
        res = rpca_ialm(L0, max_iter=100)
        assert res.residuals[-1] < res.residuals[0]

    def test_pure_low_rank_gives_empty_sparse(self, rng):
        L0 = rng.standard_normal((100, 3)) @ rng.standard_normal((3, 25))
        res = rpca_ialm(L0, tol=1e-8, max_iter=300)
        assert np.linalg.norm(res.S) < 1e-3 * np.linalg.norm(L0)

    def test_zero_matrix_trivial(self):
        res = rpca_ialm(np.zeros((10, 5)))
        assert res.converged and res.n_iterations == 0

    def test_max_iter_respected(self, rng):
        res = rpca_ialm(rng.standard_normal((40, 15)), tol=0.0, max_iter=7)
        assert res.n_iterations == 7
        assert not res.converged

    def test_callback_invoked(self, rng):
        seen = []
        rpca_ialm(rng.standard_normal((30, 10)), max_iter=5, tol=0.0,
                  callback=lambda it, r: seen.append((it, r)))
        assert [it for it, _ in seen] == [1, 2, 3, 4, 5]

    def test_rank_history_tracked(self, rng):
        L0 = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 20))
        res = rpca_ialm(L0, max_iter=50)
        assert len(res.ranks) == res.n_iterations
        assert res.final_rank <= 20

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            rpca_ialm(np.zeros(5))

    def test_custom_svd_engine_used(self, rng):
        calls = []

        def probe_svd(A):
            calls.append(1)
            return np.linalg.svd(A, full_matrices=False)

        rpca_ialm(rng.standard_normal((30, 10)), max_iter=3, tol=0.0, svd=probe_svd)
        assert len(calls) == 3

    def test_graph_engine_bit_identical_at_video_shape(self):
        # 3072 x 72: wider than the 64-row default request, so TSQR runs
        # 2304-row level-0 blocks (one full block plus a 768-row tail).
        M = generate_video(48, 64, 72, seed=0).M
        direct = rpca_ialm(M, tol=0.0, max_iter=4)
        graph = rpca_ialm(M, tol=0.0, max_iter=4, engine="graph")
        assert graph.residuals == direct.residuals and graph.ranks == direct.ranks
        assert np.array_equal(graph.L, direct.L) and np.array_equal(graph.S, direct.S)
