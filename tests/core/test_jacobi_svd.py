"""Tests for the one-sided Jacobi SVD substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.jacobi_svd import _round_robin_step, _rotations, jacobi_svd, svd_via_jacobi


class TestJacobiSVD:
    @pytest.mark.parametrize("m,n", [(10, 10), (30, 8), (100, 5), (6, 1)])
    def test_reconstruction(self, rng, m, n):
        A = rng.standard_normal((m, n))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)

    def test_singular_values_match_numpy(self, rng):
        A = rng.standard_normal((40, 12))
        _, s, _ = jacobi_svd(A)
        assert np.allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-10)

    def test_descending_nonnegative(self, rng):
        _, s, _ = jacobi_svd(rng.standard_normal((20, 7)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_factors_orthonormal(self, rng):
        A = rng.standard_normal((25, 9))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose(U.T @ U, np.eye(9), atol=1e-11)
        assert np.allclose(Vt @ Vt.T, np.eye(9), atol=1e-11)

    def test_on_triangular_r_factor(self, rng):
        # The library's actual use: SVD of the n x n R from QR.
        R = np.triu(rng.standard_normal((16, 16)))
        U, s, Vt = jacobi_svd(R)
        assert np.allclose((U * s) @ Vt, R, atol=1e-11)

    def test_rank_deficient(self, rng):
        B = rng.standard_normal((20, 3))
        A = B @ rng.standard_normal((3, 8))
        U, s, Vt = jacobi_svd(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-10)
        assert np.sum(s > 1e-10 * s[0]) == 3

    def test_zero_matrix(self):
        U, s, Vt = jacobi_svd(np.zeros((5, 3)))
        assert np.allclose(s, 0.0)
        assert np.allclose((U * s) @ Vt, 0.0)

    def test_ill_conditioned_high_relative_accuracy(self, matrix_factory):
        A = matrix_factory(50, 10, cond=1e10)
        _, s, _ = jacobi_svd(A)
        s_np = np.linalg.svd(A, compute_uv=False)
        # Jacobi attains high *relative* accuracy on the small values too.
        assert np.allclose(s, s_np, rtol=1e-6, atol=1e-15)

    def test_wide_requires_transpose(self, rng):
        with pytest.raises(ValueError):
            jacobi_svd(rng.standard_normal((3, 7)))

    def test_empty_columns(self):
        U, s, Vt = jacobi_svd(np.zeros((4, 0)))
        assert s.shape == (0,)

    def test_identity(self):
        U, s, Vt = jacobi_svd(np.eye(6))
        assert np.allclose(s, 1.0)


class TestSvdViaJacobi:
    def test_wide_matrix(self, rng):
        A = rng.standard_normal((5, 12))
        U, s, Vt = svd_via_jacobi(A)
        assert U.shape == (5, 5)
        assert Vt.shape == (5, 12)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)

    def test_tall_delegates(self, rng):
        A = rng.standard_normal((12, 5))
        U, s, Vt = svd_via_jacobi(A)
        assert np.allclose((U * s) @ Vt, A, atol=1e-11)


class TestUnderflowRegression:
    def test_denormal_scale_columns_converge(self, rng):
        """Regression: alpha*beta underflow used to make convergence
        detection divide by zero and spin to the sweep cap."""
        A = rng.standard_normal((12, 6))
        A[:, 3] *= 1e-160
        A[:, 4] *= 1e-165
        U, s, Vt = jacobi_svd(A)
        assert np.all(np.isfinite(s))
        assert np.allclose((U * s) @ Vt, A, atol=1e-10)

    def test_uniformly_tiny_matrix(self, rng):
        A = 1e-170 * rng.standard_normal((10, 4))
        U, s, Vt = jacobi_svd(A)
        assert np.all(np.isfinite(s))
        # Relative reconstruction still holds at denormal scale.
        assert np.linalg.norm((U * s) @ Vt - A) <= 1e-8 * np.linalg.norm(A)


def _cyclic_reference(A, tol):
    """Singular values by the scalar cyclic-by-rows one-sided Jacobi loop."""
    U = np.array(A, dtype=np.float64)
    n = U.shape[1]
    for _ in range(60):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha, beta = U[:, p] @ U[:, p], U[:, q] @ U[:, q]
                gamma = U[:, p] @ U[:, q]
                denom = np.sqrt(alpha) * np.sqrt(beta)
                if denom == 0.0:
                    continue
                off = max(off, abs(gamma) / denom)
                if abs(gamma) <= tol * denom:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = 1.0 if zeta == 0.0 else np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                U[:, [p, q]] = U[:, [p, q]] @ np.array([[c, c * t], [-c * t, c]])
        if off <= tol:
            return np.sort(np.linalg.norm(U, axis=0))[::-1]
    raise AssertionError("reference did not converge")


def _check_svd(A, U, s, Vt, rtol=1e-12):
    n = A.shape[1]
    np.testing.assert_allclose(s, np.linalg.svd(A, compute_uv=False), rtol=rtol, atol=0)
    assert np.allclose((U * s) @ Vt, A, rtol=0, atol=rtol * s[0])
    assert np.allclose(U.T @ U, np.eye(n), atol=1e-12)
    assert np.allclose(Vt @ Vt.T, np.eye(n), atol=1e-12)


class TestRoundRobinOrdering:
    @pytest.mark.parametrize("dtype,tol,rtol", [(np.float64, 1e-14, 1e-13), (np.float32, 1e-7, 1e-5)])
    @pytest.mark.parametrize("case", ["square", "tall_odd", "graded", "rank_deficient"])
    def test_matches_cyclic_scalar_reference(self, rng, case, dtype, tol, rtol):
        A = {
            "square": lambda: rng.standard_normal((12, 12)),
            "tall_odd": lambda: rng.standard_normal((20, 9)),
            "graded": lambda: np.triu(rng.standard_normal((10, 10))) * np.logspace(0, -6, 10),
            "rank_deficient": lambda: rng.standard_normal((15, 3)) @ rng.standard_normal((3, 8)),
        }[case]().astype(dtype)
        _, s, _ = jacobi_svd(A, tol=tol)
        ref = _cyclic_reference(A, tol)
        assert s.dtype == dtype
        np.testing.assert_allclose(s, ref, rtol=rtol, atol=rtol * ref[0])

    @pytest.mark.parametrize("n2", [2, 4, 6, 10, 100])
    def test_each_sweep_meets_every_pair_once_and_restores_order(self, n2):
        step = _round_robin_step(n2)
        cols = np.arange(n2)
        met = []
        for _ in range(n2 - 1):
            met += [frozenset(p) for p in zip(cols[: n2 // 2], cols[n2 // 2 :])]
            cols = cols[step]
        assert len(met) == len(set(met)) == n2 * (n2 - 1) // 2
        assert np.array_equal(cols, np.arange(n2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17])
    def test_narrow_and_odd_widths(self, rng, n):
        # Odd n runs with one zero pad column; n = 1 pairs only with it.
        A = rng.standard_normal((n + 4, n))
        U, s, Vt = jacobi_svd(A)
        assert U.shape == (n + 4, n) and s.shape == (n,) and Vt.shape == (n, n)
        _check_svd(A, U, s, Vt)

    def test_single_column_is_normalized(self):
        U, s, Vt = jacobi_svd(np.array([[3.0], [4.0]]))
        assert s.tolist() == [5.0] and Vt.tolist() == [[1.0]]
        assert np.allclose(U[:, 0], [0.6, 0.8])

    def test_zero_column_never_rotates(self, rng):
        A = rng.standard_normal((10, 5))
        A[:, 2] = 0.0
        U, s, Vt = jacobi_svd(A)
        assert s[-1] == 0.0 and np.all(U[:, -1] == 0.0)
        assert np.array_equal(Vt[-1], np.eye(5)[2])
        np.testing.assert_allclose(s[:4], np.linalg.svd(A, compute_uv=False)[:4], rtol=1e-12)
        assert np.allclose((U * s) @ Vt, A, atol=1e-12)

    def test_denormal_scale_columns(self, rng):
        # Squared column norms near 2**-1030 are denormal and every
        # alpha * beta underflows to zero, yet all pairs must still rotate.
        B = rng.standard_normal((12, 3))
        B[:, 1] += B[:, 0]
        A = np.ldexp(B, -515)
        assert (A[:, 0] @ A[:, 0]) * (A[:, 1] @ A[:, 1]) == 0.0
        U, s, Vt = jacobi_svd(A)
        np.testing.assert_allclose(np.ldexp(s, 515), np.linalg.svd(B, compute_uv=False), rtol=1e-13)
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-13)

    def test_extreme_scale_pair_takes_asymptotic_tangent(self):
        # zeta = (beta - alpha) / (2 gamma) = -1e160: zeta**2 overflows and
        # the textbook tangent rounds to zero; the asymptotic one does not.
        c, s, off = _rotations(np.array([1e160]), np.array([1e-160]), np.array([0.5]), 1e-14)
        assert c.tolist() == [1.0] and s.tolist() == [0.5 / -1e160]
        assert off == 0.5

    def test_equal_norm_pair_rotates_by_45_degrees(self):
        # zeta = 0: the tangent formula gives t = 0; the rotation must be t = 1.
        c, s, _ = _rotations(np.array([25.0]), np.array([25.0]), np.array([24.0]), 1e-14)
        np.testing.assert_allclose([c[0], s[0]], [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)
        _, sv, _ = jacobi_svd(np.array([[3.0, 4.0], [4.0, 3.0]]))
        np.testing.assert_allclose(sv, [7.0, 1.0], rtol=1e-14)

    def test_extreme_scale_columns_orthogonalize(self, rng):
        x, y = rng.standard_normal((2, 8))
        A = np.column_stack([1e80 * x, 1e-80 * (x + y)])
        U, s, Vt = jacobi_svd(A)
        y_perp = (x + y) - x * (x @ (x + y)) / (x @ x)
        np.testing.assert_allclose(s, [1e80 * np.linalg.norm(x), 1e-80 * np.linalg.norm(y_perp)], rtol=1e-13)
        assert np.allclose(U.T @ U, np.eye(2), atol=1e-14)

    def test_sweep_cap_raises(self, rng):
        with pytest.raises(RuntimeError, match="did not converge in 2 sweeps"):
            jacobi_svd(rng.standard_normal((30, 30)), max_sweeps=2)

    def test_graded_triangular_r_at_cond_1e12(self, rng):
        # R = T diag(g): unit upper-triangular T, columns graded 1 .. 1e-12.
        n = 40
        T = np.eye(n) + 0.3 * np.triu(rng.standard_normal((n, n)), 1)
        R = T * np.logspace(0, -12, n)
        s_ref = np.linalg.svd(R, compute_uv=False)
        assert s_ref[0] / s_ref[-1] > 1e12
        U, s, Vt = jacobi_svd(R)
        _check_svd(R, U, s, Vt)


class TestJacobiSpan:
    def test_span_records_columns_and_sweeps(self, rng):
        from repro import obs

        A = rng.standard_normal((60, 9))
        with obs.capture() as session:
            jacobi_svd(A)
        (span,) = session.trace.by_cat("svd")
        assert span.name == "jacobi_svd" and span.args["n"] == 9
        sweeps = span.args["sweeps"]
        jacobi_svd(A, max_sweeps=sweeps)  # converges in exactly that many
        with pytest.raises(RuntimeError):
            jacobi_svd(A, max_sweeps=sweeps - 1)

    def test_span_sits_under_the_svt_small_svd(self, rng):
        from repro import obs
        from repro.rpca.svt import singular_value_threshold

        with obs.capture() as session:
            singular_value_threshold(rng.standard_normal((400, 12)), 0.5)
        trace = session.trace
        (span,) = trace.by_cat("svd")
        (parent,) = [s for s in trace.spans if s.id == span.parent]
        assert parent.name == "rpca.small_svd" and span.args["n"] == 12
