"""Tests of factor serialization (save/load roundtrips)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.caqr import caqr
from repro.core.tsqr import tsqr
from repro.io import load_caqr, load_tsqr, save_caqr, save_tsqr
from repro.runtime import ExecutionPolicy
from repro.runtime.policy import LOOKAHEAD, PATHS
from repro.verify.fuzz import policy_for

# Tall, ragged (one tail thinner than the width), geqrt level-0 blocks
# and geqrt tree nodes, one block, one column, square, wide, degenerate.
ARCHIVE_SHAPES = [
    (1100, 20), (1034, 16), (130, 16), (1300, 48), (40, 10), (300, 1),
    (32, 32), (10, 25), (77, 100), (0, 5), (5, 0), (0, 0),
]


def _roundtrip(save, load, f):
    buf = io.BytesIO()
    save(buf, f)
    buf.seek(0)
    return load(buf)


class TestBitIdenticalArchives:
    """A loaded factorization is the saved one: the archive holds the
    apply plan's arrays with their layouts, so R, ``form_q``,
    ``apply_qt`` and ``apply_q`` keep every bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tree", ["quad", "binary", "flat"])
    @pytest.mark.parametrize("br", [None, 64, 8])
    @pytest.mark.parametrize("path", ["batched", "structured"])
    @pytest.mark.parametrize("entry", ["tsqr", "caqr"])
    def test_roundtrip_keeps_the_bits(self, entry, path, br, tree, dtype):
        rng = np.random.default_rng(br or 0)
        for m, n in ARCHIVE_SHAPES:
            A = rng.standard_normal((m, n)).astype(dtype)
            if entry == "tsqr":
                policy = ExecutionPolicy(path=path, block_rows=br, tree_shape=tree)
                f, save, load = tsqr(A, policy=policy), save_tsqr, load_tsqr
            else:
                policy = ExecutionPolicy(path=path, panel_width=16, block_rows=br, tree_shape=tree)
                f, save, load = caqr(A, policy=policy), save_caqr, load_caqr
            g = _roundtrip(save, load, f)
            B = rng.standard_normal((m, 3)).astype(dtype)
            assert np.array_equal(g.R, f.R) and g.R.dtype == f.R.dtype, (m, n)
            assert np.array_equal(g.form_q(), f.form_q()), (m, n)
            assert np.array_equal(g.apply_qt(B.copy()), f.apply_qt(B.copy())), (m, n)
            assert np.array_equal(g.apply_q(B.copy()), f.apply_q(B.copy())), (m, n)

    def test_version_1_archive_is_refused(self, tmp_path):
        np.savez(
            tmp_path / "v1.npz", meta=np.array([1, 300, 12, 5]), tree_shape=np.array("quad"),
            R=np.zeros((12, 12)), b0_rows=np.array([0, 64]),
        )
        with pytest.raises(ValueError, match="version 1"):
            load_tsqr(tmp_path / "v1.npz")
        np.savez(
            tmp_path / "v1caqr.npz", caqr_meta=np.array([1, 300, 12, 4, 64, 3]),
            caqr_tree_shape=np.array("quad"), caqr_R=np.zeros((12, 12)),
        )
        with pytest.raises(ValueError, match="version 1"):
            load_caqr(tmp_path / "v1caqr.npz")


@pytest.mark.parametrize(
    "name", [name for name, spec in PATHS.items() if spec.engine is not LOOKAHEAD]
)
def test_archives_refuse_other_engines_factors(rng, name):
    """Only the look-ahead engine's factors are archived; the others'
    are refused with a TypeError that names their class."""
    A = rng.standard_normal((300, 12))
    f = caqr(A, policy=policy_for(name))
    cls = type(f).__name__
    with pytest.raises(TypeError, match=f"cannot archive {cls}; archives hold the look-ahead"):
        save_caqr(io.BytesIO(), f)
    with pytest.raises(TypeError, match=f"cannot archive {cls}; TSQR archives hold TSQRFactors"):
        save_tsqr(io.BytesIO(), f)


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
        # The structured merges' reflectors survived as they were.
        pairs = [(e, d) for la, lb in zip(f.plan.levels, g.plan.levels) for e, d in zip(la, lb)]
        assert pairs and len(pairs) == sum(map(len, f.plan.levels))
        for (_, V, T), (_, W, U) in pairs:
            assert np.array_equal(V, W) and np.array_equal(T, U)

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
        assert f.panels[0].factors.plan.l0_h == 640
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
