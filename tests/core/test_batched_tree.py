"""Batched tree-level execution vs the per-node reference.

The ``batched`` path (the default) must be a pure
performance transformation: same block structure, same tree, same
factors up to roundoff, same results from every application method, on
every ragged/edge shape.  The per-node reference of
:mod:`tests.reference_qr` is the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr, caqr_qr
from repro.core.tsqr import level0_rows, panel_schedule, tsqr, tsqr_qr
from repro.io import load_tsqr, save_tsqr
from repro.runtime import ExecutionPolicy
from repro.smallblas.wy import larft
from tests import reference_qr

ATOL = 1e-10

# (m, n, block_rows, tree_shape, structured) — ragged row counts, narrow
# last panels, every tree shape, structured stacks, single block.
SHAPES = [
    (256, 16, 64, "quad", False),  # uniform, power-of-4 blocks
    (301, 16, 64, "quad", False),  # ragged last block
    (301, 16, 64, "binary", False),
    (1000, 13, 64, "binomial", False),
    (257, 16, 64, "flat", False),
    (300, 16, 64, "quad", True),  # structured R-stack factorization
    (301, 11, 64, "binary", True),
    (77, 100, 64, "quad", False),  # wide: n > m
    (50, 16, 64, "quad", False),  # single (short) block, empty tree
    (200, 16, 33, "quad", False),  # odd block_rows + ragged
    (65, 16, 64, "quad", False),  # 1-row ragged tail
]


def _pair(rng, m, n, br, shape, structured):
    A = rng.standard_normal((m, n))
    geometry = {"block_rows": br, "tree_shape": shape}
    batched = "structured" if structured else "batched"
    fb = tsqr(A, policy=ExecutionPolicy(path=batched, **geometry))
    fr = reference_qr.tsqr(A, structured=structured, **geometry)
    return A, fb, fr


def _assert_wy_matches(V, T, packed, tau):
    """A plan's compact-WY ``(V, T)`` of one node against the oracle's
    packed reflectors: the same unit-lower ``V``, and the ``T`` that
    LAPACK ``larft`` builds from them."""
    k = V.shape[1]
    V_ref = np.tril(packed[:, :k], -1) + np.eye(*V.shape)
    np.testing.assert_allclose(V, V_ref, atol=ATOL)
    np.testing.assert_allclose(T.diagonal(), tau, atol=ATOL)
    np.testing.assert_allclose(T, larft(V_ref[None], tau[None])[0], atol=ATOL)


class TestFactorParity:
    """The apply plan's stacks hold the oracle's per-node factors."""

    @pytest.mark.parametrize("m,n,br,shape,structured", SHAPES)
    def test_blocks_match_per_node(self, rng, m, n, br, shape, structured):
        """Every level-0 block's ``(V, T)`` matches the reference block by block."""
        _, fb, fr = _pair(rng, m, n, br, shape, structured)
        plan = fb.plan
        h = plan.l0_h
        nodes = [((i * h, (i + 1) * h), plan.l0_V[i], plan.l0_T[i]) for i in range(plan.l0_count)]
        nodes += [((s, s + ht), Vt[0], Tt[0]) for s, ht, Vt, Tt in plan.l0_tail]
        assert len(nodes) == len(fr.blocks) == fb.tree.n_blocks
        for (rows, V, T), blk in zip(nodes, fr.blocks):
            assert rows == blk.rows
            _assert_wy_matches(V, T, blk.packed, blk.tau)

    @pytest.mark.parametrize("m,n,br,shape,structured", SHAPES)
    def test_tree_factors_match_per_node(self, rng, m, n, br, shape, structured):
        """Every tree node's ``(V, T)`` matches the reference group by
        group, whichever kernel merged it (a structured node's V is its
        sparse reflectors written out dense); the schedule places the
        plan's entries."""
        _, fb, fr = _pair(rng, m, n, br, shape, structured)
        assert fb.tree.levels == fr.tree.levels
        sched = panel_schedule(m, n, level0_rows(br, n), shape)
        assert len(fb.plan.levels) == len(sched.levels) == len(fr.tree_factors)
        for batches, entries, level in zip(sched.levels, fb.plan.levels, fr.tree_factors):
            groups = [(b, p) for b in batches for p in b.positions]
            assert sorted(p for _, p in groups) == list(range(len(level)))
            assert len(entries) == len(batches)  # one stacked entry per batch
            for b, (idx, V, T) in zip(batches, entries):
                assert idx is b.idx
                for gi, p in enumerate(b.positions):
                    assert b.heights == level[p].heights
                    if structured:
                        V_ref, tau = level[p].structured.dense_reflectors()
                        np.testing.assert_allclose(V[gi], V_ref, atol=ATOL)
                        np.testing.assert_allclose(
                            T[gi], larft(V_ref[None], tau[None])[0], atol=ATOL
                        )
                    else:
                        _assert_wy_matches(V[gi], T[gi], level[p].packed, level[p].tau)

    @pytest.mark.parametrize("m,n,br,shape,structured", SHAPES)
    def test_r_matches(self, rng, m, n, br, shape, structured):
        _, fb, fr = _pair(rng, m, n, br, shape, structured)
        np.testing.assert_allclose(fb.R, fr.R, atol=ATOL)


class TestApplyParity:
    @pytest.mark.parametrize("m,n,br,shape,structured", SHAPES)
    def test_apply_qt_apply_q_form_q(self, rng, m, n, br, shape, structured):
        _, fb, fr = _pair(rng, m, n, br, shape, structured)
        B = rng.standard_normal((m, 5))
        # apply_qt/apply_q work in place, so each call gets its own copy.
        np.testing.assert_allclose(
            fb.apply_qt(B.copy()), fr.apply_qt(B.copy()), atol=ATOL
        )
        np.testing.assert_allclose(
            fb.apply_q(B.copy()), fr.apply_q(B.copy()), atol=ATOL
        )
        np.testing.assert_allclose(fb.form_q(), fr.form_q(), atol=ATOL)

    def test_vector_rhs(self, rng):
        A = rng.standard_normal((301, 9))
        fb = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        fr = reference_qr.tsqr(A, block_rows=64)
        b = rng.standard_normal(301)
        out = fb.apply_qt(b.copy())
        np.testing.assert_allclose(out, fr.apply_qt(b.copy()), atol=ATOL)
        assert out.ndim == 1

    def test_float32_input(self, rng):
        A = rng.standard_normal((300, 10)).astype(np.float32)
        B = rng.standard_normal((300, 3)).astype(np.float32)
        fb = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        fr = reference_qr.tsqr(A, block_rows=64)
        assert fb.R.dtype == np.float32
        np.testing.assert_allclose(fb.R, fr.R, atol=1e-4)
        np.testing.assert_allclose(
            fb.apply_qt(B.copy()), fr.apply_qt(B.copy()), atol=1e-4
        )

    def test_mixed_dtype_rhs(self, rng):
        """Factor in float64, apply to float32: plan converts once."""
        A = rng.standard_normal((301, 8))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        B64 = rng.standard_normal((301, 3))
        B32 = B64.astype(np.float32)
        out64 = f.apply_qt(B64.copy())
        out32 = f.apply_qt(B32)
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, atol=1e-4)


class TestNumericalQuality:
    @pytest.mark.parametrize("m,n,br,shape,structured", SHAPES)
    def test_residual_and_orthogonality(self, rng, m, n, br, shape, structured):
        A = rng.standard_normal((m, n))
        path = "structured" if structured else "batched"
        policy = ExecutionPolicy(path=path, block_rows=br, tree_shape=shape)
        Q, R = tsqr_qr(A, policy=policy)
        k = min(m, n)
        assert Q.shape == (m, k)
        np.testing.assert_allclose(Q @ R, A, atol=1e-10)
        np.testing.assert_allclose(Q.T @ Q, np.eye(k), atol=1e-10)


class TestCAQRParity:
    @pytest.mark.parametrize(
        "m,n,br,pw",
        [
            (300, 40, 64, 16),
            (301, 37, 64, 16),  # ragged rows + narrow last panel
            (513, 50, 64, 8),
            (200, 30, 33, 7),
        ],
    )
    def test_caqr_batched_vs_reference(self, rng, m, n, br, pw):
        A = rng.standard_normal((m, n))
        fb = caqr(A, policy=ExecutionPolicy(panel_width=pw, block_rows=br))
        fr = reference_qr.caqr(A, panel_width=pw, block_rows=br)
        np.testing.assert_allclose(fb.R, fr.R, atol=ATOL)
        B = rng.standard_normal((m, 4))
        np.testing.assert_allclose(
            fb.apply_qt(B.copy()), fr.apply_qt(B.copy()), atol=ATOL
        )
        np.testing.assert_allclose(
            fb.apply_q(B.copy()), fr.apply_q(B.copy()), atol=ATOL
        )
        Qb, Rb = caqr_qr(A, policy=ExecutionPolicy(panel_width=pw, block_rows=br))
        np.testing.assert_allclose(Qb @ Rb, A, atol=1e-10)
        np.testing.assert_allclose(Qb.T @ Qb, np.eye(n), atol=1e-10)

    def test_launch_stream_identical(self, rng):
        """The simulator timeline is shape-only: both execution paths
        must enumerate the exact same kernel-launch sequence."""
        from repro.caqr_gpu import enumerate_caqr_launches
        from repro.kernels.config import REFERENCE_CONFIG

        launches = list(enumerate_caqr_launches(301, 37, REFERENCE_CONFIG))
        again = list(enumerate_caqr_launches(301, 37, REFERENCE_CONFIG))
        assert launches == again
        # The factor structure the launches describe is the same object
        # both paths produce: same block count, same tree groups.
        A = rng.standard_normal((301, 37))
        fb = caqr(A, policy=ExecutionPolicy(panel_width=16))
        fr = reference_qr.caqr(A)
        assert len(fb.panels) == len(fr.panels)
        for pb, pr in zip(fb.panels, fr.panels):
            assert pb.factors.tree.n_blocks == len(pr.factors.blocks)
            assert pb.factors.tree.levels == pr.factors.tree.levels


class TestIORoundTrip:
    def test_batched_factor_survives_save_load(self, rng, tmp_path):
        A = rng.standard_normal((301, 12))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        path = tmp_path / "f.npz"
        save_tsqr(path, f)
        g = load_tsqr(path)
        B = rng.standard_normal((301, 3))
        np.testing.assert_allclose(
            g.apply_qt(B.copy()), f.apply_qt(B.copy()), atol=ATOL
        )
        np.testing.assert_allclose(g.R, f.R, atol=ATOL)
