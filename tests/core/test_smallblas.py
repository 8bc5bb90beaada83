"""Tests of the batched small-kernel library against the scalar kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.householder import geqr2, house, org2r, orm2r
from repro.runtime import ExecutionPolicy
from repro.smallblas import (
    batched_apply_q,
    batched_apply_qt,
    batched_form_q,
    batched_geqr2,
    batched_house,
)


def packed_vr(V: np.ndarray, R: np.ndarray) -> np.ndarray:
    """LAPACK's packed layout rebuilt from a batched factor's ``V`` and
    ``R`` (a new array): the reflectors below the diagonal, R on and
    above it."""
    k = V.shape[-1]
    VR = np.zeros(V.shape[:-1] + R.shape[-1:], dtype=V.dtype)
    VR[..., :k] = np.tril(V, -1)
    VR[..., :k, :] += R
    return VR


class TestBatchedHouse:
    def test_matches_scalar(self, rng):
        X = rng.standard_normal((50, 9))
        V, tau, beta = batched_house(X)
        for i in range(50):
            v_s, t_s, b_s = house(X[i])
            assert np.allclose(V[i], v_s, atol=1e-13)
            assert tau[i] == pytest.approx(t_s)
            assert beta[i] == pytest.approx(b_s)

    def test_zero_vectors_identity(self):
        X = np.zeros((4, 6))
        V, tau, beta = batched_house(X)
        assert np.allclose(tau, 0.0)
        assert np.allclose(beta, 0.0)

    def test_mixed_zero_and_nonzero(self, rng):
        X = rng.standard_normal((6, 5))
        X[2] = 0.0
        X[4, 1:] = 0.0  # already reduced
        V, tau, beta = batched_house(X)
        assert tau[2] == 0.0
        assert tau[4] == 0.0
        assert beta[4] == pytest.approx(X[4, 0])
        for i in (0, 1, 3, 5):
            _, t_s, b_s = house(X[i])
            assert tau[i] == pytest.approx(t_s)

    def test_length_one(self, rng):
        X = rng.standard_normal((3, 1))
        V, tau, beta = batched_house(X)
        assert np.allclose(V, 1.0)
        assert np.allclose(tau, 0.0)
        assert np.allclose(beta, X[:, 0])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            batched_house(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            batched_house(np.zeros(5))


class TestBatchedGeqr2:
    @pytest.mark.parametrize("b,m,n", [(10, 16, 4), (5, 64, 16), (3, 8, 8), (7, 4, 9)])
    def test_matches_scalar(self, rng, b, m, n):
        A = rng.standard_normal((b, m, n))
        VRb, taub = batched_geqr2(A)
        for i in range(b):
            VR, tau = geqr2(A[i])
            assert np.allclose(VRb[i], VR, atol=1e-12)
            assert np.allclose(taub[i], tau, atol=1e-12)

    def test_input_unmodified(self, rng):
        A = rng.standard_normal((4, 10, 3))
        A0 = A.copy()
        batched_geqr2(A)
        assert np.array_equal(A, A0)

    def test_float32_preserved(self, rng):
        A = rng.standard_normal((4, 12, 4)).astype(np.float32)
        VR, tau = batched_geqr2(A)
        assert VR.dtype == np.float32 and tau.dtype == np.float32

    def test_batch_of_one(self, rng):
        A = rng.standard_normal((1, 20, 5))
        VR, tau = batched_geqr2(A)
        VR_s, tau_s = geqr2(A[0])
        assert np.allclose(VR[0], VR_s, atol=1e-13)

    def test_rejects_2d(self, rng):
        with pytest.raises(ValueError):
            batched_geqr2(rng.standard_normal((4, 4)))


class TestBatchedApply:
    def test_qt_matches_orm2r(self, rng):
        A = rng.standard_normal((8, 32, 8))
        VR, tau = batched_geqr2(A)
        C = rng.standard_normal((8, 32, 5))
        out = batched_apply_qt(VR, tau, C.copy())
        for i in range(8):
            ref = orm2r(VR[i], tau[i], C[i].copy(), transpose=True)
            assert np.allclose(out[i], ref, atol=1e-12)

    def test_q_qt_roundtrip(self, rng):
        A = rng.standard_normal((6, 24, 6))
        VR, tau = batched_geqr2(A)
        C = rng.standard_normal((6, 24, 3))
        out = batched_apply_q(VR, tau, batched_apply_qt(VR, tau, C.copy()))
        assert np.allclose(out, C, atol=1e-12)

    def test_applied_to_own_block_gives_r(self, rng):
        A = rng.standard_normal((5, 16, 4))
        VR, tau = batched_geqr2(A)
        out = batched_apply_qt(VR, tau, A.copy())
        for i in range(5):
            assert np.allclose(np.triu(out[i, :4]), np.triu(VR[i, :4]), atol=1e-12)
            assert np.linalg.norm(out[i, 4:]) < 1e-10

    def test_shape_mismatch_rejected(self, rng):
        A = rng.standard_normal((3, 10, 4))
        VR, tau = batched_geqr2(A)
        with pytest.raises(ValueError):
            batched_apply_qt(VR, tau, rng.standard_normal((3, 9, 2)))
        with pytest.raises(ValueError):
            batched_apply_qt(VR, tau, rng.standard_normal((2, 10, 2)))


class TestBatchedFormQ:
    def test_matches_org2r(self, rng):
        A = rng.standard_normal((6, 20, 7))
        VR, tau = batched_geqr2(A)
        Q = batched_form_q(VR, tau)
        for i in range(6):
            assert np.allclose(Q[i], org2r(VR[i], tau[i]), atol=1e-12)

    def test_orthonormal(self, rng):
        A = rng.standard_normal((4, 30, 5))
        VR, tau = batched_geqr2(A)
        Q = batched_form_q(VR, tau)
        eye = np.eye(5)
        for i in range(4):
            assert np.allclose(Q[i].T @ Q[i], eye, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(1, 12),
    m=st.integers(1, 24),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_property_batched_equals_scalar(b, m, n, seed):
    A = np.random.default_rng(seed).standard_normal((b, m, n))
    VRb, taub = batched_geqr2(A)
    for i in range(b):
        VR, tau = geqr2(A[i])
        assert np.allclose(VRb[i], VR, atol=1e-11)
        assert np.allclose(taub[i], tau, atol=1e-11)


class TestBatchedBlockedApply:
    def test_larft_matches_scalar(self, rng):
        from repro.core.blocked import larft
        from repro.core.householder import extract_v
        from repro.smallblas.batched import batched_larft

        A = rng.standard_normal((6, 20, 5))
        VR, tau = batched_geqr2(A)
        T = batched_larft(VR, tau)
        for i in range(6):
            T_ref = larft(extract_v(VR[i]), tau[i])
            assert np.allclose(T[i], T_ref, atol=1e-12)

    def test_blocked_apply_matches_reflector_loop(self, rng):
        from repro.smallblas.batched import batched_apply_blocked

        A = rng.standard_normal((8, 48, 12))
        VR, tau = batched_geqr2(A)
        C = rng.standard_normal((8, 48, 7))
        a = batched_apply_qt(VR, tau, C.copy())
        b = batched_apply_blocked(VR, tau, C.copy(), transpose=True)
        assert np.allclose(a, b, atol=1e-11)
        aq = batched_apply_q(VR, tau, C.copy())
        bq = batched_apply_blocked(VR, tau, C.copy(), transpose=False)
        assert np.allclose(aq, bq, atol=1e-11)

    def test_precomputed_t_reused(self, rng):
        from repro.smallblas.batched import batched_apply_blocked, batched_larft

        A = rng.standard_normal((4, 16, 4))
        VR, tau = batched_geqr2(A)
        T = batched_larft(VR, tau)
        C = rng.standard_normal((4, 16, 3))
        a = batched_apply_blocked(VR, tau, C.copy(), T=T)
        b = batched_apply_blocked(VR, tau, C.copy())
        assert np.allclose(a, b, atol=1e-13)

    def test_tsqr_uses_blocked_path_correctly(self, rng):
        """End-to-end: TSQR level-0 applies now go through compact-WY."""
        from repro.core.tsqr import tsqr_qr
        from repro.core.validation import factorization_error, orthogonality_error

        A = rng.standard_normal((1024, 24))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=128))
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12


class TestCompactWY:
    """The GEMM-based compact-WY kernels against the einsum reference."""

    def test_extract_v_matches_reference(self, rng):
        from repro.smallblas.batched import _extract_v_batch
        from repro.smallblas.wy import extract_v

        for shape in [(4, 20, 6), (3, 5, 9), (2, 1, 3), (5, 7, 7)]:
            A = rng.standard_normal(shape)
            VR, _ = batched_geqr2(A)
            assert np.array_equal(extract_v(VR), _extract_v_batch(VR))

    def test_larft_matches_reference(self, rng):
        from repro.smallblas.batched import batched_larft
        from repro.smallblas.wy import extract_v, larft

        A = rng.standard_normal((6, 20, 5))
        VR, tau = batched_geqr2(A)
        assert np.allclose(
            larft(extract_v(VR), tau), batched_larft(VR, tau), atol=1e-12
        )

    def test_apply_wy_matches_reference_and_writes_in_place(self, rng):
        from repro.smallblas.batched import batched_apply_blocked
        from repro.smallblas.wy import apply_wy, extract_v, larft

        A = rng.standard_normal((8, 48, 12))
        VR, tau = batched_geqr2(A)
        V = extract_v(VR)
        T = larft(V, tau)
        C = rng.standard_normal((8, 48, 7))
        for transpose in (True, False):
            ref = batched_apply_blocked(VR, tau, C.copy(), transpose=transpose)
            got = C.copy()
            ret = apply_wy(V, T, got, transpose=transpose)
            assert ret is got  # in-place contract
            assert np.allclose(got, ref, atol=1e-11)

    def test_apply_wy_through_strided_view(self, rng):
        """The zero-copy reshape path: apply through a view of a 2-D matrix."""
        from repro.smallblas.batched import batched_apply_blocked
        from repro.smallblas.wy import apply_wy, extract_v, larft

        A = rng.standard_normal((6, 16, 4))
        VR, tau = batched_geqr2(A)
        V = extract_v(VR)
        T = larft(V, tau)
        B = rng.standard_normal((96, 5))
        tiles = B[:96].reshape(6, 16, 5)
        assert np.shares_memory(tiles, B)
        ref = batched_apply_blocked(VR, tau, np.ascontiguousarray(tiles))
        apply_wy(V, T, tiles)
        assert np.allclose(B.reshape(6, 16, 5), ref, atol=1e-11)

    def test_geqr2_blocked_matches_reference(self, rng):
        from repro.smallblas.wy import GEQRT_MIN_ELEMS, extract_v, geqr2_blocked

        gufunc_shapes = [
            (7, 20, 11),
            (3, 6, 10),  # wide
            (5, 64, 16),  # the paper's block
            (1, 8, 8),
            (4, 1, 3),  # single row
            (2, 9, 1),  # single column
            (2, 5, 5),
        ]
        geqrt_shapes = [
            (3, 400, 40),  # tall
            (3, 96, 96),  # m == n
            (2, GEQRT_MIN_ELEMS, 1),  # single column, at the threshold
        ]
        for b, m, n in gufunc_shapes:
            assert m < n or m * n < GEQRT_MIN_ELEMS
        for b, m, n in geqrt_shapes:
            assert m >= n and m * n >= GEQRT_MIN_ELEMS
        for shape in gufunc_shapes + geqrt_shapes:
            A = rng.standard_normal(shape)
            if shape[1] > 2 and shape[0] > 1:
                A[0, 1:, 0] = 0.0  # already-reduced column
                A[1, :, :] = 0.0  # fully zero block
            A0 = A.copy()
            V, T, R, tau = geqr2_blocked(A)
            assert np.array_equal(A, A0), "input must not be mutated"
            VR = packed_vr(V, R)
            assert np.array_equal(V, extract_v(VR)), shape  # V is unit lower trapezoidal
            assert np.array_equal(R, np.triu(R)), shape
            VR0, tau0 = batched_geqr2(A)
            assert np.allclose(VR, VR0, atol=1e-11), shape
            assert np.allclose(tau, tau0, atol=1e-11), shape
            assert np.array_equal(tau, np.diagonal(T, axis1=1, axis2=2)), shape
            assert np.array_equal(T, np.triu(T)), shape
            if shape[1] > 2 and shape[0] > 1:
                assert tau[0, 0] == 0.0  # reduced column: identity reflector
                assert not tau[1].any() and not VR[1].any()

    def test_geqr2_blocked_wy_reconstructs(self, rng):
        from repro.smallblas.wy import apply_wy, geqr2_blocked

        # gufunc; geqrt tall; geqrt square
        for b, m, n in [(5, 24, 9), (3, 400, 40), (2, 96, 96)]:
            A = rng.standard_normal((b, m, n))
            V, T, R, tau = geqr2_blocked(A)
            QR = np.concatenate([R, np.zeros((b, m - n, n))], axis=1)
            apply_wy(V, T, QR, transpose=False)  # Q @ [R; 0] == A
            assert np.allclose(QR, A, atol=1e-11), (b, m, n)

    def test_geqr2_blocked_float32(self, rng):
        from repro.smallblas.wy import apply_wy, geqr2_blocked

        for b, m, n in [(4, 32, 8), (3, 400, 40)]:  # gufunc; sgeqrt
            A = rng.standard_normal((b, m, n)).astype(np.float32)
            A0 = A.copy()
            V, T, R, tau = geqr2_blocked(A)
            assert np.array_equal(A, A0)
            assert R.dtype == tau.dtype == V.dtype == T.dtype == np.float32
            VR0, tau0 = batched_geqr2(A)
            assert np.allclose(packed_vr(V, R), VR0, atol=1e-4)
            assert np.array_equal(tau, np.diagonal(T, axis1=1, axis2=2))
            QR = np.concatenate([R, np.zeros((b, m - n, n), np.float32)], axis=1)
            apply_wy(V, T, QR, transpose=False)
            assert np.allclose(QR, A, atol=1e-4)

    def test_factor_kernel_follows_slice_shape_only(self, rng, monkeypatch):
        """geqrt runs exactly for tall slices at or above the threshold."""
        from repro.smallblas import wy

        if wy._lapack is None:
            pytest.skip("SciPy LAPACK not available")
        calls = []
        real = wy._lapack

        class Spy:
            def __getattr__(self, name):
                fn = getattr(real, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return fn(*args, **kwargs)

                return counted

        monkeypatch.setattr(wy, "_lapack", Spy())
        t = wy.GEQRT_MIN_ELEMS
        for b in (1, 5):
            calls.clear()
            wy.geqr2_blocked(rng.standard_normal((b, t // 16, 16)))
            assert calls == ["dgeqrt"] * b
            calls.clear()
            wy.geqr2_blocked(rng.standard_normal((b, t // 16, 16)).astype(np.float32))
            assert calls == ["sgeqrt"] * b
            calls.clear()
            wy.geqr2_blocked(rng.standard_normal((b, t // 16 - 1, 16)))
            wy.geqr2_blocked(rng.standard_normal((b, 16, t // 16)))  # wide
            assert calls == []

    def test_geqr2_blocked_empty_slices(self):
        from repro.smallblas.wy import geqr2_blocked

        for b, m, n in [(2, 0, 3), (2, 3, 0), (0, 4, 3)]:
            V, T, R, tau = geqr2_blocked(np.zeros((b, m, n), np.float32))
            k = min(m, n)
            assert R.shape == (b, k, n) and tau.shape == (b, k)
            assert V.shape == (b, m, k) and T.shape == (b, k, k)
            assert R.dtype == tau.dtype == V.dtype == T.dtype == np.float32

    def test_geqr2_blocked_rejects_bad_shape(self):
        from repro.smallblas.wy import geqr2_blocked

        with np.testing.assert_raises(ValueError):
            geqr2_blocked(np.zeros((4, 5)))


class TestPackedStorage:
    """The kernels read V where LAPACK wrote it: applying Q and forming Q
    from the factor's own storage match the same kernels on an extracted,
    C-ordered copy of V."""

    SHAPES = [
        (3, 20, 7),  # gufunc
        (2, 64, 16),  # the paper's block, gufunc
        (3, 400, 40),  # geqrt
        (2, 9, 9),  # m == n, gufunc
        (2, 96, 96),  # m == n, geqrt
        (4, 50, 1),  # n = 1, gufunc
        (2, 8192, 1),  # n = 1, geqrt
        (2, 6, 10),  # wide, gufunc
    ]
    TOL = {np.float64: 1e-12, np.float32: 2e-4}

    @staticmethod
    def _factors(rng, shape, dtype):
        from repro.smallblas.wy import GEQRT_MIN_ELEMS, extract_v, geqr2_blocked

        b, m, n = shape
        V, T, R, _ = geqr2_blocked(rng.standard_normal(shape).astype(dtype))
        Vx = extract_v(packed_vr(V, R))
        assert Vx.flags.c_contiguous and np.array_equal(V, Vx)
        if m >= n and m * n >= GEQRT_MIN_ELEMS and n > 1:
            assert V[0].flags.f_contiguous  # a view of geqrt's Fortran output
        return V, T, Vx

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_apply_wy_through_strided_target(self, rng, shape, dtype):
        from repro.smallblas.wy import apply_wy

        V, T, Vx = self._factors(rng, shape, dtype)
        b, m, _ = shape
        for transpose in (True, False):
            big = rng.standard_normal((b, m, 10)).astype(dtype)
            ref = apply_wy(Vx, T, np.ascontiguousarray(big[:, :, ::2]), transpose=transpose)
            target = big[:, :, ::2]  # every other column: a strided view
            apply_wy(V, T, target, transpose=transpose)
            np.testing.assert_allclose(big[:, :, ::2], ref, rtol=0, atol=self.TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_orgqr_wy_into_strided_out(self, rng, shape, dtype):
        from repro.smallblas.wy import orgqr_wy

        V, T, Vx = self._factors(rng, shape, dtype)
        b, m, _ = shape
        k = V.shape[2]
        C = rng.standard_normal((b, k, 3)).astype(dtype)
        ref = orgqr_wy(Vx, T, C, np.empty((b, m, 3), dtype))
        wide = np.full((b, m, 6), np.nan, dtype)
        got = orgqr_wy(V, T, C, wide[:, :, ::2])  # strided out
        np.testing.assert_allclose(got, ref, rtol=0, atol=self.TOL[dtype])
        assert np.isnan(wide[:, :, 1::2]).all()  # only out was written
        np.testing.assert_allclose(wide[:, :, ::2], ref, rtol=0, atol=self.TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "m,n,br",
        [(1100, 20, 64), (4100, 40, None), (130, 1, 64), (300, 16, 33), (96, 96, None)],
        ids=["ragged", "ragged-default", "n1", "odd-blocks", "square"],
    )
    def test_tsqr_plan_matches_extracted_copies(self, rng, m, n, br, dtype):
        """TSQR's plan (level 0, ragged tail, tree) on its packed storage
        against the same plan with every V replaced by a C-ordered copy."""
        import dataclasses

        from repro.core.tsqr import _plan_form_q, apply_wy_plan, tsqr

        A = rng.standard_normal((m, n)).astype(dtype)
        f = tsqr(A, policy=ExecutionPolicy(block_rows=br))
        plan = f.plan
        copy = np.ascontiguousarray
        assert plan.l0_V.base is not None  # a view of the factor kernel's output
        px = dataclasses.replace(
            plan,
            l0_V=None if plan.l0_V is None else copy(plan.l0_V),
            l0_tail=[(s, h, copy(V), T) for s, h, V, T in plan.l0_tail],
            levels=[[(idx, copy(V), T) for idx, V, T in lvl] for lvl in plan.levels],
        )
        tol = self.TOL[dtype]
        k = min(m, n)
        np.testing.assert_allclose(f.form_q(), _plan_form_q(px, m, k)[0], rtol=0, atol=tol)
        B = rng.standard_normal((m, 5)).astype(dtype)
        for transpose in (True, False):
            ref = B.copy()
            apply_wy_plan(px, ref, transpose=transpose)
            got = (f.apply_qt if transpose else f.apply_q)(B.copy())
            np.testing.assert_allclose(got, ref, rtol=0, atol=tol)
