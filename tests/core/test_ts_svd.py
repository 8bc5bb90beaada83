"""Tests for tall-skinny SVD via QR (Section VI-B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr_qr
from repro.core.cholesky_qr import cholesky_qr
from repro.core.ts_svd import tall_skinny_svd
from repro.core.tsqr import tsqr_qr


class TestTallSkinnySVD:
    @pytest.mark.parametrize("qr", [caqr_qr, tsqr_qr], ids=["caqr", "tsqr"])
    def test_reconstruction(self, rng, qr):
        A = rng.standard_normal((300, 20))
        U, s, Vt = tall_skinny_svd(A, qr=qr)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)

    def test_matches_numpy_svd(self, rng):
        A = rng.standard_normal((256, 16))
        U, s, Vt = tall_skinny_svd(A, qr=tsqr_qr)
        s_np = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(s, s_np, atol=1e-10)

    def test_left_vectors_orthonormal(self, rng):
        A = rng.standard_normal((200, 12))
        U, _, _ = tall_skinny_svd(A)
        assert np.allclose(U.T @ U, np.eye(12), atol=1e-11)

    def test_custom_qr_callable(self, rng):
        A = abs(rng.standard_normal((100, 6))) + 0.1  # well-conditioned enough
        U, s, Vt = tall_skinny_svd(A, qr=cholesky_qr)
        assert np.allclose((U * s) @ Vt, A, atol=1e-8)

    def test_subspace_matches_numpy(self, rng):
        # Video-matrix shape in miniature: singular vectors must span the
        # same dominant subspace numpy finds.
        A = rng.standard_normal((500, 10))
        U, s, Vt = tall_skinny_svd(A)
        U_np, _, _ = np.linalg.svd(A, full_matrices=False)
        # Compare projectors (sign/rotation free).
        P = U @ U.T
        P_np = U_np @ U_np.T
        assert np.allclose(P, P_np, atol=1e-9)

    def test_wide_rejected(self, rng):
        with pytest.raises(ValueError):
            tall_skinny_svd(rng.standard_normal((5, 10)))

    def test_low_rank_video_like_matrix(self, rng):
        # background (rank 1) + sparse foreground, as in Robust PCA.
        bg = rng.standard_normal((400, 1)) @ np.ones((1, 30))
        S = np.zeros((400, 30))
        idx = rng.integers(0, 400, size=60)
        S[idx, rng.integers(0, 30, size=60)] = 5.0
        A = bg + S
        U, s, Vt = tall_skinny_svd(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-9)
        assert s[0] > 3 * s[1]  # dominant background mode
