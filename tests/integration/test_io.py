"""Tests of factor serialization (save/load roundtrips)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.tsqr import tsqr
from repro.io import load_caqr, load_tsqr, save_caqr, save_tsqr
from repro.runtime import ExecutionPolicy


class TestTSQRRoundtrip:
    def test_r_and_apply_preserved(self, rng, tmp_path):
        A = rng.standard_normal((300, 12))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        path = tmp_path / "f.npz"
        save_tsqr(path, f)
        g = load_tsqr(path)
        assert np.array_equal(g.R, f.R)
        B = rng.standard_normal((300, 4))
        assert np.allclose(g.apply_qt(B.copy()), f.apply_qt(B.copy()), atol=1e-14)
        assert np.allclose(g.form_q(), f.form_q(), atol=1e-14)

    @pytest.mark.parametrize("shape", ["binary", "quad", "binomial", "flat"])
    def test_all_tree_shapes(self, rng, tmp_path, shape):
        A = rng.standard_normal((200, 8))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=32, tree_shape=shape))
        path = tmp_path / f"{shape}.npz"
        save_tsqr(path, f)
        g = load_tsqr(path)
        assert g.tree.shape == shape
        assert np.allclose(g.form_q() @ g.R, A, atol=1e-11)

    def test_structured_factors_roundtrip(self, rng, tmp_path):
        A = rng.standard_normal((400, 10))
        f = tsqr(A, policy=ExecutionPolicy(path="structured", block_rows=32))
        path = tmp_path / "s.npz"
        save_tsqr(path, f)
        g = load_tsqr(path)
        assert np.allclose(g.form_q() @ g.R, A, atol=1e-11)
        # The structured reflectors really survived (not silently dense).
        assert any(tf.structured is not None for lvl in g.tree_factors for tf in lvl)

    def test_single_block(self, rng, tmp_path):
        A = rng.standard_normal((20, 6))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        save_tsqr(tmp_path / "one.npz", f)
        g = load_tsqr(tmp_path / "one.npz")
        assert np.allclose(g.form_q() @ g.R, A, atol=1e-12)

    def test_float32_dtype_preserved(self, rng, tmp_path):
        A = rng.standard_normal((100, 6)).astype(np.float32)
        f = tsqr(A, policy=ExecutionPolicy(block_rows=32))
        save_tsqr(tmp_path / "f32.npz", f)
        g = load_tsqr(tmp_path / "f32.npz")
        assert g.R.dtype == np.float32
        assert g.form_q().dtype == np.float32


class TestCAQRRoundtrip:
    def test_full_roundtrip(self, rng, tmp_path):
        A = rng.standard_normal((160, 48))
        f = caqr(A, policy=ExecutionPolicy(panel_width=16, block_rows=32))
        path = tmp_path / "caqr.npz"
        save_caqr(path, f)
        g = load_caqr(path)
        assert np.array_equal(g.R, f.R)
        assert g.panel_width == 16 and g.block_rows == 32
        assert len(g.panels) == len(f.panels)
        B = rng.standard_normal((160, 3))
        assert np.allclose(g.apply_qt(B.copy()), f.apply_qt(B.copy()), atol=1e-14)
        assert np.allclose(g.form_q(), f.form_q(), atol=1e-14)

    def test_default_geometry_roundtrip(self, rng, tmp_path):
        # An unset block_rows (the host default: 32-panel-width blocks)
        # is stored as a sentinel and loads back as None.
        # The default path on a tall matrix is one 20-wide panel.
        A = rng.standard_normal((1100, 20))
        f = caqr(A)
        assert f.block_rows is None and len(f.panels) == 1
        assert f.panels[0].factors.blocks[0].rows == (0, 640)
        path = tmp_path / "default.npz"
        save_caqr(path, f)
        g = load_caqr(path)
        assert g.block_rows is None and g.panel_width == 20
        assert np.array_equal(g.R, f.R)
        B = rng.standard_normal((1100, 3))
        assert np.allclose(g.apply_qt(B.copy()), f.apply_qt(B.copy()), atol=1e-14)
        assert np.allclose(g.form_q(), f.form_q(), atol=1e-14)

    def test_least_squares_through_loaded_factors(self, rng, tmp_path):
        from repro.core.triangular import solve_upper

        A = rng.standard_normal((200, 10))
        x_true = rng.standard_normal(10)
        b = (A @ x_true).reshape(-1, 1)
        f = caqr(A, policy=ExecutionPolicy(panel_width=4, block_rows=32))
        save_caqr(tmp_path / "ls.npz", f)
        g = load_caqr(tmp_path / "ls.npz")
        qtb = g.apply_qt(b.copy())
        x = solve_upper(g.R[:10, :10], qtb[:10]).ravel()
        assert np.allclose(x, x_true, atol=1e-9)

    def test_no_pickle_in_archive(self, rng, tmp_path):
        """Archives must load with allow_pickle=False (safe to share)."""
        A = rng.standard_normal((80, 8))
        f = caqr(A, policy=ExecutionPolicy(panel_width=4, block_rows=16))
        save_caqr(tmp_path / "safe.npz", f)
        with np.load(tmp_path / "safe.npz", allow_pickle=False) as z:
            assert "caqr_R" in z
