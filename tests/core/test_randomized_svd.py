"""Tests of the randomized partial SVD (TSQR range finder)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.randomized_svd import randomized_range_finder, randomized_svd
from repro.runtime import ExecutionPolicy


def low_rank(rng, m, n, r, noise=0.0):
    A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    if noise:
        A = A + noise * rng.standard_normal((m, n))
    return A


class TestRangeFinder:
    def test_orthonormal(self, rng):
        A = low_rank(rng, 400, 40, 5)
        Q = randomized_range_finder(A, k=5)
        assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)

    def test_captures_range_exactly_low_rank(self, rng):
        A = low_rank(rng, 500, 30, 4)
        Q = randomized_range_finder(A, k=4)
        # Projection must reproduce A.
        assert np.linalg.norm(A - Q @ (Q.T @ A)) < 1e-9 * np.linalg.norm(A)

    def test_oversampling_helps_noisy(self, rng):
        A = low_rank(rng, 600, 50, 6, noise=0.01)
        err = []
        for p in (0, 10):
            Q = randomized_range_finder(A, k=6, oversample=max(p, 1), power_iters=0, rng=np.random.default_rng(1))
            err.append(np.linalg.norm(A - Q @ (Q.T @ A)))
        assert err[1] <= err[0] * 1.05

    def test_bad_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            randomized_range_finder(rng.standard_normal((10, 5)), k=0)


class TestRandomizedSVD:
    def test_exact_on_low_rank(self, rng):
        A = low_rank(rng, 800, 60, 5)
        U, s, Vt = randomized_svd(A, k=5)
        assert np.linalg.norm((U * s) @ Vt - A) < 1e-8 * np.linalg.norm(A)
        s_true = np.linalg.svd(A, compute_uv=False)[:5]
        assert np.allclose(s, s_true, rtol=1e-8)

    def test_default_policy(self, rng):
        # ExecutionPolicy() leaves block_rows unset; the power-iteration
        # shortcut compares n against the level-0 height TSQR would use
        # for the n x ell sketch (32 * ell rows).
        A = low_rank(rng, 800, 60, 5)
        policy = ExecutionPolicy()
        Q = randomized_range_finder(A, k=5, power_iters=2, policy=policy)
        assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)
        U, s, Vt = randomized_svd(A, k=5, policy=policy)
        assert np.linalg.norm((U * s) @ Vt - A) < 1e-8 * np.linalg.norm(A)

    def test_truncates_to_k(self, rng):
        A = rng.standard_normal((100, 20))
        U, s, Vt = randomized_svd(A, k=7)
        assert U.shape == (100, 7) and s.shape == (7,) and Vt.shape == (7, 20)

    def test_factors_orthonormal(self, rng):
        A = low_rank(rng, 300, 25, 6, noise=0.001)
        U, s, Vt = randomized_svd(A, k=6)
        assert np.allclose(U.T @ U, np.eye(6), atol=1e-9)
        assert np.allclose(Vt @ Vt.T, np.eye(6), atol=1e-9)

    def test_wide_matrix(self, rng):
        A = low_rank(rng, 30, 500, 4)
        U, s, Vt = randomized_svd(A, k=4)
        assert U.shape == (30, 4) and Vt.shape == (4, 500)
        assert np.linalg.norm((U * s) @ Vt - A) < 1e-8 * np.linalg.norm(A)

    def test_power_iterations_sharpen_spectrum(self, rng):
        # Slowly decaying spectrum: power iterations improve accuracy.
        U0, _ = np.linalg.qr(rng.standard_normal((400, 50)))
        V0, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        s_full = np.linspace(1.0, 0.2, 50)
        A = (U0 * s_full) @ V0.T
        s_true = s_full[:5]
        errs = []
        for q in (0, 3):
            _, s, _ = randomized_svd(A, k=5, oversample=2, power_iters=q, rng=np.random.default_rng(2))
            errs.append(np.abs(s - s_true).max())
        assert errs[1] <= errs[0]

    def test_deterministic_with_rng(self, rng):
        A = low_rank(rng, 200, 30, 3, noise=0.01)
        out1 = randomized_svd(A, k=3, rng=np.random.default_rng(5))
        out2 = randomized_svd(A, k=3, rng=np.random.default_rng(5))
        assert np.array_equal(out1[1], out2[1])


def test_stage_spans_and_coverage():
    # One root ``rsvd`` span per call, its children the pipeline's stages
    # in order (power_iters=1: sketch, qr, then one power step's project,
    # qr, sketch, qr; then the projection and the small SVD), covering
    # the root's wall time.  Tracing leaves the bits alone.
    A = low_rank(np.random.default_rng(11), 20_000, 60, 6, noise=1e-3)
    plain = randomized_svd(A, k=6, power_iters=1)
    with obs.capture() as session:
        traced = randomized_svd(A, k=6, power_iters=1)
        Q = randomized_range_finder(A, k=6, power_iters=1)
    assert all(np.array_equal(a, b) for a, b in zip(traced, plain))
    t = session.trace
    roots = [s for s in t.spans if s.name == "rsvd"]
    assert len(roots) == 2 and all(r.parent is None and r.cat == "rsvd" for r in roots)
    finder = ["rsvd.sketch", "rsvd.qr", "rsvd.project", "rsvd.qr", "rsvd.sketch", "rsvd.qr"]
    svd_root, finder_root = sorted(roots, key=lambda s: s.start_ns)
    assert [c.name for c in t.children(svd_root.id)] == finder + ["rsvd.project", "rsvd.svd"]
    assert [c.name for c in t.children(finder_root.id)] == finder
    for root in roots:
        assert t.coverage(root) >= 0.95
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)
