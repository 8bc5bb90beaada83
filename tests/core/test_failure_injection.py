"""Failure-injection tests: non-finite data, degenerate shapes, misuse.

The default guard policy (:mod:`repro.verify.guards`) rejects non-finite
inputs with ``ValueError`` at every public entry point.  With
``nonfinite="propagate"`` the library follows LAPACK's contract instead:
non-finite inputs propagate (garbage in, NaN out) rather than hang or
silently produce plausible numbers, and the validation metrics must then
flag the result.  These tests pin both behaviors, plus the explicit
errors for misuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocked import blocked_qr
from repro.core.caqr import caqr_qr
from repro.core.jacobi_svd import jacobi_svd
from repro.core.tsqr import tsqr_qr
from repro.core.validation import is_factorization_accurate
from repro.rpca import rpca_ialm
from repro.runtime import ExecutionPolicy
from repro.streaming import StreamingQR


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN arithmetic is the point
class TestNonFinitePropagation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("qr", [tsqr_qr, caqr_qr, blocked_qr])
    def test_qr_rejects_nonfinite_by_default(self, rng, qr, bad):
        A = rng.standard_normal((64, 8))
        A[17, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qr(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("qr", [tsqr_qr, caqr_qr, blocked_qr])
    def test_qr_propagates_and_validation_flags(self, rng, qr, bad):
        A = rng.standard_normal((64, 8))
        A[17, 3] = bad
        if qr is blocked_qr:  # a numeric baseline: guard knob, no policy
            Q, R = qr(A, nonfinite="propagate")
        else:
            Q, R = qr(A, policy=ExecutionPolicy(nonfinite="propagate"))
        assert not np.all(np.isfinite(Q)) or not np.all(np.isfinite(R))
        assert not is_factorization_accurate(A, Q, R)

    def test_finite_part_unaffected_before_contamination(self, rng):
        """Columns left of a NaN column factor normally (column order)."""
        A = rng.standard_normal((40, 6))
        A[5, 4] = np.nan
        Q, R = blocked_qr(A, nb=2, nonfinite="propagate")
        # Leading 4x4 triangle involves only clean columns.
        R_clean = np.triu(np.linalg.qr(A[:, :4], mode="r"))
        assert np.allclose(np.abs(np.diag(R[:4, :4])), np.abs(np.diag(R_clean)), atol=1e-10)

    def test_jacobi_svd_rejects_nonfinite(self, rng):
        A = rng.standard_normal((20, 5))
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            jacobi_svd(A, max_sweeps=5)

    def test_rpca_nonfinite_input_does_not_hang(self, rng):
        M = rng.standard_normal((30, 10))
        M[2, 2] = np.inf
        with pytest.raises(ValueError):
            rpca_ialm(M, max_iter=3)


class TestDegenerateShapes:
    def test_1x1(self):
        Q, R = tsqr_qr(np.array([[3.0]]))
        assert Q.shape == (1, 1) and abs(abs(R[0, 0]) - 3.0) < 1e-15

    def test_single_row(self):
        A = np.array([[1.0, 2.0, 3.0]])
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=2, block_rows=4))
        assert Q.shape == (1, 1)
        assert np.allclose(np.abs(Q @ R), np.abs(A))

    def test_all_zero_matrix(self):
        A = np.zeros((50, 6))
        Q, R = tsqr_qr(A)
        assert np.allclose(R, 0.0)
        assert np.allclose(Q.T @ Q, np.eye(6), atol=1e-12)  # Q still orthonormal

    def test_constant_columns(self, rng):
        A = np.ones((30, 4))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=8))
        assert abs(abs(R[0, 0]) - np.sqrt(30)) < 1e-9  # ||column of ones||
        assert np.abs(np.diag(R)[1:]).max() < 1e-12

    def test_huge_and_tiny_scales(self, rng):
        for scale in (1e150, 1e-150):
            A = scale * rng.standard_normal((40, 5))
            Q, R = tsqr_qr(A)
            assert np.all(np.isfinite(Q))
            assert np.linalg.norm(A - Q @ R) < 1e-12 * np.linalg.norm(A)


class TestMisuse:
    def test_streaming_wrong_width_mid_stream(self, rng):
        sq = StreamingQR(policy=ExecutionPolicy(path="streaming", chunk_rows=10))
        sq.push(rng.standard_normal((10, 4)))
        R = sq.R.copy()
        with pytest.raises(ValueError, match="column"):
            sq.push(rng.standard_normal((10, 5)))
        # The stream state is unchanged by the failed push.
        assert sq.rows_seen == 10
        assert sq.n_chunks == 1
        assert np.array_equal(sq.R, R)

    def test_simulator_rejects_nonsense(self):
        from repro.caqr_gpu import simulate_caqr
        from repro.kernels.config import KernelConfig

        with pytest.raises(ValueError):
            simulate_caqr(-5, 10)
        with pytest.raises(ValueError):
            KernelConfig(block_rows=16, panel_width=32)

    def test_device_perturbation_cannot_mutate_preset(self):
        from repro.gpusim.device import C2050

        with pytest.raises(Exception):
            C2050.dram_bw_gbs = 1.0
