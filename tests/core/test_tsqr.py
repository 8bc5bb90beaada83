"""Unit and integration tests for TSQR."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.linalg

from repro import obs
from repro.core.tsqr import TALL_BLOCK_WIDTHS, level0_rows, row_blocks, tsqr, tsqr_qr
from repro.core.validation import (
    factorization_error,
    orthogonality_error,
    sign_canonical,
    triangularity_error,
)
from repro.graph.executor import build_lookahead_schedule
from repro.runtime import ExecutionPolicy
from repro.runtime.plan import plan_qr
from repro.serving.batch import ServingPlan
from repro.smallblas import wy
from tests import reference_qr

tsqr_mod = importlib.import_module("repro.core.tsqr")


def _tsqr(A, path, **geometry):
    """TSQR under ``path``; ``seed`` names the per-node reference."""
    if path == "seed":
        return reference_qr.tsqr(A, **geometry)
    return tsqr(A, policy=ExecutionPolicy(path=path, **geometry))


def _tsqr_qr(A, path, **geometry):
    if path == "seed":
        return reference_qr.tsqr_qr(A, **geometry)
    return tsqr_qr(A, policy=ExecutionPolicy(path=path, **geometry))


def _block_rows(f):
    """Level-0 row blocks: the oracle's records, or the apply plan's
    uniform blocks and ragged tail."""
    if isinstance(f, reference_qr.ReferenceTSQRFactors):
        return [b.rows for b in f.blocks]
    p = f.plan
    uniform = [(i * p.l0_h, (i + 1) * p.l0_h) for i in range(p.l0_count)]
    rows = uniform + [(s, s + h) for s, h, _, _ in p.l0_tail]
    assert len(rows) == f.tree.n_blocks
    return rows


class TestRowBlocks:
    def test_exact_division(self):
        assert row_blocks(128, 64) == [(0, 64), (64, 128)]

    def test_short_last_block(self):
        assert row_blocks(100, 64) == [(0, 64), (64, 100)]

    def test_single_block(self):
        assert row_blocks(30, 64) == [(0, 30)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            row_blocks(0, 64)
        with pytest.raises(ValueError):
            row_blocks(10, 0)


class TestTSQRFactorization:
    @pytest.mark.parametrize("tree_shape", ["binary", "quad", "binomial", "flat"])
    @pytest.mark.parametrize("m,n,br", [(256, 16, 64), (1000, 13, 64), (130, 16, 64), (64, 16, 64)])
    def test_qr_quality(self, rng, tree_shape, m, n, br):
        A = rng.standard_normal((m, n))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=br, tree_shape=tree_shape))
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12
        assert triangularity_error(R) == 0.0

    def test_r_matches_scipy_canonical(self, rng):
        A = rng.standard_normal((512, 24))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        R_sp = scipy.linalg.qr(A, mode="r")[0][:24]
        _, R_c = sign_canonical(Q, R)
        _, R_sp_c = sign_canonical(np.zeros((24, 24)), R_sp)
        assert np.allclose(R_c, R_sp_c, atol=1e-10)

    def test_block_rows_smaller_than_width_uses_tall_blocks(self, rng):
        # block_rows=8 < n=16: level-0 blocks of 32 * 16 = 512 rows.
        A = rng.standard_normal((2000, 16))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=8))
        assert _block_rows(f) == row_blocks(2000, 512)
        assert f.tree.n_levels == 1  # four blocks, one quad-tree merge
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) < 1e-13
        assert orthogonality_error(Q) < 1e-13

    def test_single_block_degenerates_to_geqr2(self, rng):
        A = rng.standard_normal((40, 10))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        assert f.tree.n_levels == 0
        assert f.tree.n_blocks == 1 and _block_rows(f) == [(0, 40)]
        assert factorization_error(A, f.form_q(), f.R) < 1e-13

    def test_wide_matrix(self, rng):
        A = rng.standard_normal((10, 25))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        Q = f.form_q()
        assert Q.shape == (10, 10)
        assert f.R.shape == (10, 25)
        assert factorization_error(A, Q, f.R) < 1e-13

    def test_extreme_aspect_ratio(self, rng):
        # s-step Krylov territory: thousands of rows, < 10 columns.
        A = rng.standard_normal((5000, 4))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        assert factorization_error(A, Q, R) < 1e-13
        assert orthogonality_error(Q) < 1e-12

    def test_m_equals_n(self, rng):
        A = rng.standard_normal((32, 32))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=16))
        assert factorization_error(A, Q, R) < 1e-13

    def test_one_column(self, rng):
        A = rng.standard_normal((300, 1))
        Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        assert Q.shape == (300, 1)
        assert abs(abs(R[0, 0]) - np.linalg.norm(A)) < 1e-10

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            tsqr(rng.standard_normal(10))


class TestLevel0Height:
    def test_rule(self):
        assert TALL_BLOCK_WIDTHS == 32
        assert level0_rows(64, 16) == 64  # the paper's geometry
        assert level0_rows(16, 16) == 16
        assert level0_rows(15, 16) == 512
        assert level0_rows(64, 100) == 3200

    @pytest.mark.parametrize("m,n,br", [(1000, 16, 64), (100, 16, 16), (130, 16, 64)])
    def test_geometry_unchanged_when_block_rows_covers_width(self, rng, m, n, br):
        f = tsqr(rng.standard_normal((m, n)), policy=ExecutionPolicy(block_rows=br))
        assert _block_rows(f) == row_blocks(m, br)

    @pytest.mark.parametrize("path", ["batched", "seed", "structured"])
    def test_ragged_tail_shorter_than_width(self, rng, path):
        # 512-row blocks leave a 10-row tail whose R is a 10 x 16 trapezoid.
        A = rng.standard_normal((1034, 16))
        f = _tsqr(A, path, block_rows=8)
        assert _block_rows(f) == [(0, 512), (512, 1024), (1024, 1034)]
        assert f.tree.n_levels == 1
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) < 1e-13
        assert orthogonality_error(Q) < 1e-13
        assert triangularity_error(f.R) == 0.0
        B = rng.standard_normal((1034, 5))
        assert np.allclose(f.apply_q(f.apply_qt(B.copy())), B, atol=1e-12)

    def test_paper_shape(self, rng):
        # 110592 x 100 with the default 64-row request: 34 blocks of 3200
        # rows plus a 1792-row tail, reduced by a three-level quad tree.
        A = rng.standard_normal((110592, 100))
        f = tsqr(A)
        rows = _block_rows(f)
        assert len(rows) == 35 and rows[0] == (0, 3200)
        assert rows[-1] == (108800, 110592)
        assert f.tree.n_levels == 3
        Q = f.form_q()
        assert factorization_error(A, Q, f.R) <= 1e-14
        assert orthogonality_error(Q) <= 1e-13
        assert np.abs(Q - _identity_q(f)).max() < 1e-15

    def test_plans_share_the_rule(self):
        # A 32-wide panel over 8-row requests: every planner sizes 1024-row blocks.
        policy = ExecutionPolicy(path="lookahead", panel_width=32, block_rows=8)
        plan = plan_qr(5000, 64, policy=policy)
        assert [p.block_rows for p in plan.panels] == [1024, 1024]
        sched = build_lookahead_schedule(5000, 64, policy)
        assert [bh for _, _, _, bh, _ in sched.panels] == [1024, 1024]
        batched = ExecutionPolicy(path="batched", panel_width=32, block_rows=8)
        serving = ServingPlan(5000, 64, np.float64, batched)
        assert [s.ranges for s in serving.schedule.panel_schedules] == [
            tuple(row_blocks(5000, 1024)), tuple(row_blocks(4968, 1024))
        ]


class TestTSQRApply:
    def test_apply_qt_then_q_roundtrip(self, rng):
        A = rng.standard_normal((320, 12))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        B = rng.standard_normal((320, 7))
        out = f.apply_qt(B.copy())
        out = f.apply_q(out)
        assert np.allclose(out, B, atol=1e-12)

    def test_apply_qt_to_a_gives_r_on_top(self, rng):
        A = rng.standard_normal((256, 10))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        QtA = f.apply_qt(A.copy())
        assert np.allclose(np.triu(QtA[:10]), f.R, atol=1e-12)
        # Everything outside the distributed R rows is annihilated.
        assert np.linalg.norm(QtA[10:]) < 1e-10

    def test_apply_q_matches_explicit(self, rng):
        A = rng.standard_normal((192, 8))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        Q = f.form_q()
        B = rng.standard_normal((8, 5))
        expanded = np.vstack([B, np.zeros((192 - 8, 5))])
        got = f.apply_q(expanded.copy())
        assert np.allclose(got, Q @ B, atol=1e-12)

    def test_row_mismatch_raises(self, rng):
        f = tsqr(rng.standard_normal((128, 8)), policy=ExecutionPolicy(block_rows=64))
        with pytest.raises(ValueError):
            f.apply_qt(np.zeros((64, 2)))

    def test_apply_is_in_place_view_safe(self, rng):
        A = rng.standard_normal((128, 6))
        f = tsqr(A, policy=ExecutionPolicy(block_rows=64))
        big = rng.standard_normal((128, 10))
        view = big[:, 2:8]
        before = big[:, :2].copy()
        f.apply_qt(view)
        assert np.array_equal(big[:, :2], before)


class TestTreeShapeEquivalence:
    def test_all_shapes_same_r_up_to_signs(self, rng):
        A = rng.standard_normal((640, 16))
        rs = []
        for shape in ["binary", "quad", "binomial", "flat"]:
            Q, R = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64, tree_shape=shape))
            _, Rc = sign_canonical(Q, R)
            rs.append(Rc)
        for R in rs[1:]:
            assert np.allclose(R, rs[0], atol=1e-10)

    def test_quad_tree_group_arity_respects_paper(self, rng):
        # 64x16 blocks: 4 Rs fit per block -> quad groups.
        policy = ExecutionPolicy(block_rows=64, tree_shape="quad")
        f = tsqr(rng.standard_normal((1024, 16)), policy=policy)
        for level in f.tree.levels:
            for group in level:
                assert len(group) <= 4


# Roundoff bound for comparing two Q formations and for the QR checks.
_TOL = {np.float64: 1e-13, np.float32: 2e-5}

# (m, n, block_rows, path, tree_shape): ragged tails (one shorter than
# the width), one block, m < n, n = 1, every tree shape, structured.
FORM_Q_CASES = [
    (1000, 13, 64, "batched", "quad"),
    (1034, 16, 8, "batched", "quad"),
    (40, 10, 64, "batched", "quad"),
    (10, 25, 64, "batched", "quad"),
    (300, 1, 64, "batched", "quad"),
    (700, 12, 64, "batched", "binary"),
    (700, 12, 64, "batched", "binomial"),
    (700, 12, 64, "batched", "flat"),
    (700, 12, 64, "structured", "quad"),
    (1034, 16, 8, "structured", "binary"),
]


def _identity_q(f):
    return f.apply_q(np.eye(f.m, min(f.m, f.n), dtype=f.R.dtype))


class TestFormQ:
    """The batched form_q (orgqr form) against apply_q(I) and the QR checks."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m,n,br,path,tree", FORM_Q_CASES)
    def test_matches_apply_q_identity(self, rng, dtype, m, n, br, path, tree):
        A = rng.standard_normal((m, n)).astype(dtype)
        f = tsqr(A, policy=ExecutionPolicy(path=path, block_rows=br, tree_shape=tree))
        Q = f.form_q()
        tol = _TOL[dtype]
        assert Q.shape == (m, min(m, n)) and Q.dtype == dtype
        assert orthogonality_error(Q) < tol
        assert factorization_error(A, Q, f.R) < tol
        assert np.abs(Q - _identity_q(f)).max() < tol

    @pytest.mark.parametrize("path", ["batched", "structured"])
    def test_loaded_factors(self, rng, tmp_path, path):
        from repro.io import load_tsqr, save_tsqr

        A = rng.standard_normal((1100, 20))
        f = tsqr(A, policy=ExecutionPolicy(path=path, block_rows=64))
        save_tsqr(tmp_path / "f.npz", f)
        g = load_tsqr(tmp_path / "f.npz")
        Q = g.form_q()
        assert np.abs(Q - _identity_q(g)).max() < 1e-13
        assert np.abs(Q - f.form_q()).max() < 1e-13
        assert factorization_error(A, Q, g.R) < 1e-13

    def test_reference_path_keeps_apply_q_identity(self, rng):
        f = reference_qr.tsqr(rng.standard_normal((1000, 13)), block_rows=64)
        assert np.array_equal(f.form_q(), _identity_q(f))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_path_without_the_binding(self, rng, monkeypatch, dtype):
        A = rng.standard_normal((1034, 16)).astype(dtype)
        f = tsqr(A, policy=ExecutionPolicy(block_rows=8))
        Q_blas = f.form_q()
        monkeypatch.setattr(wy, "_blas", None)
        with obs.capture() as session:
            Q = f.form_q()
        (span,) = session.trace.by_cat("form_q")
        assert span.args["blas"] == "numpy"
        tol = _TOL[dtype]
        assert np.abs(Q - Q_blas).max() < tol
        assert np.abs(Q - _identity_q(f)).max() < tol
        assert orthogonality_error(Q) < tol

    @pytest.mark.parametrize("dtype,gemm", [(np.float64, "dgemm"), (np.float32, "sgemm")])
    def test_runs_on_scipy_blas_never_apply_wy(self, rng, monkeypatch, dtype, gemm):
        if wy._blas is None:
            pytest.skip("SciPy BLAS not available")
        f = tsqr(rng.standard_normal((1034, 16)).astype(dtype), policy=ExecutionPolicy(block_rows=8))
        f._plan_for(np.dtype(dtype))  # plan built before the spies go in
        calls = []
        real = wy._blas

        class Spy:
            def __getattr__(self, name):
                fn = getattr(real, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return fn(*args, **kwargs)

                return counted

        def no_apply_wy(*args, **kwargs):
            raise AssertionError("form_q ran the NumPy apply_wy")

        monkeypatch.setattr(wy, "_blas", Spy())
        monkeypatch.setattr(wy, "apply_wy", no_apply_wy)
        monkeypatch.setattr(tsqr_mod, "apply_wy", no_apply_wy)
        Q = f.form_q()
        assert calls and set(calls) == {gemm}
        assert orthogonality_error(Q) < _TOL[dtype]

    def test_span_names_the_blas(self, rng):
        A = rng.standard_normal((700, 12))
        with obs.capture() as session:
            Q, _ = tsqr_qr(A, policy=ExecutionPolicy(block_rows=64))
        (span,) = session.trace.by_cat("form_q")
        assert span.name == "tsqr.form_q"
        assert span.args["m"] == 700 and span.args["n"] == 12
        assert span.args["blas"] == wy.blas_name(np.float64)
        # Q formation shows up as its own span, not as anonymous applies.
        assert not session.trace.by_cat("apply.level0")

    def test_auto_plan_forms_a_tsqr_q_only_on_fallback(self, rng, monkeypatch):
        """qr_paper's auto plan: CholeskyQR2 on the Gaussian input forms
        no TSQR Q, and the look-ahead fallback on the graded one is one
        panel, whose Q is TSQR's, formed once."""
        from repro.runtime.cholqr import count_fallbacks

        calls = []
        real = tsqr_mod.TSQRFactors.form_q
        monkeypatch.setattr(
            tsqr_mod.TSQRFactors, "form_q",
            lambda self, out=None: calls.append(self.m) or real(self, out=out),
        )
        m, n = 110592, 100
        plan = plan_qr(m, n, np.float64, ExecutionPolicy(path="auto"))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        graded = (rng.standard_normal((m, n)) * np.logspace(0, -12, n)) @ V
        with count_fallbacks() as fb:
            for A, forms in ((rng.standard_normal((m, n)), []), (graded, [m])):
                Q, R = plan.execute(A)
                assert calls == forms
                assert factorization_error(A, Q, R) < 1e-12
                del Q, R
        assert fb.fallbacks == 1


class TestEmptyShapes:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("path", ["batched", "seed", "structured"])
    @pytest.mark.parametrize("m,n", [(0, 5), (5, 0), (0, 0)])
    def test_matches_numpy_shapes(self, dtype, path, m, n):
        A = np.zeros((m, n), dtype=dtype)
        Qn, Rn = np.linalg.qr(A)
        f = _tsqr(A, path)
        Q = f.form_q()
        assert Q.shape == Qn.shape and f.R.shape == Rn.shape
        assert Q.dtype == dtype and f.R.dtype == dtype
        Q, R = _tsqr_qr(A, path)
        assert Q.shape == Qn.shape and R.shape == Rn.shape
        # No reflectors: Q and Q^T act as the identity.
        B = np.arange(3.0 * m, dtype=dtype).reshape(m, 3)
        assert np.array_equal(f.apply_qt(B.copy()), B)
        assert np.array_equal(f.apply_q(B.copy()), B)


class TestReflectorStorage:
    """No batched path copies V out of LAPACK's packed output.

    Peaks are traced NumPy allocations (``tracemalloc``) at a tall shape:
    the packed copy of A is one m x n array, and where the factors are
    not kept, Q is formed over it, in the same memory; everything else
    (R and T per block, the tree's stacked Rs, Q's top rows, one block's
    V copied out) is O(blocks * n^2).  An m x n copy of V, or a Q beside
    the reflectors, would add a whole ``A.nbytes``.
    """

    M, N = 65536, 64
    SMALL = 8  # allowance, in units of blocks * n * n elements

    @staticmethod
    def _peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def bounds(self):
        A = np.random.default_rng(5).standard_normal((self.M, self.N))
        blocks = -(-self.M // level0_rows(None, self.N))
        return A, A.nbytes, self.SMALL * blocks * self.N * self.N * A.itemsize

    def test_tsqr_qr(self, bounds):
        A, mn, small = bounds
        (Q, R), peak = self._peak(lambda: tsqr_qr(A))
        assert peak < mn + small, f"peak {peak / mn:.2f} x A.nbytes"
        assert factorization_error(A, Q, R) < 1e-14

    def test_one_panel_lookahead(self, bounds):
        A, mn, small = bounds
        plan = plan_qr(self.M, self.N, np.float64, ExecutionPolicy(path="lookahead"))
        f, peak = self._peak(lambda: plan.factor(A))
        assert len(f.panels) == 1
        assert peak < mn + small, f"factor peak {peak / mn:.2f} x A.nbytes"
        del f
        (Q, R), peak = self._peak(lambda: plan.execute(A))
        assert peak < mn + small, f"execute peak {peak / mn:.2f} x A.nbytes"
        assert np.array_equal(Q, tsqr_qr(A)[0])

    @pytest.mark.parametrize("width,copies", [(None, 1), (16, 2)])
    def test_default_path_factor(self, bounds, width, copies):
        """The default path's factor holds the panels' V (one m x n) and,
        with trailing updates, its working copy of A: no third copy."""
        A, mn, small = bounds
        plan = plan_qr(self.M, self.N, np.float64, ExecutionPolicy(panel_width=width))
        f, peak = self._peak(lambda: plan.factor(A))
        assert len(f.panels) == (1 if width is None else self.N // width)
        assert peak < copies * mn + small, f"factor peak {peak / mn:.2f} x A.nbytes"

    def test_kept_factors_hold_the_plan_only(self, bounds):
        """A kept ``tsqr(A)`` holds its V (one m x n) and the plan's
        per-block T and tree factors, about 0.085 of one more: no level's
        R stack outlives the factor (1.126 x while they were kept)."""
        import tracemalloc

        A, mn, _ = bounds
        tracemalloc.start()
        try:
            f = tsqr(A)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.09 * mn, f"kept {held / mn:.3f} x A.nbytes"
        assert f.R.shape == (self.N, self.N)

    def test_other_dtype_apply_keeps_no_cast_plan(self, bounds):
        """A ``B`` of another dtype is applied through a cast copy of the
        plan made for that call: the factors keep none of it (a float32
        copy of every V and T stayed with them, 0.550 x A.nbytes).  The
        apply runs on its own thread, whose ``apply_wy`` scratch goes
        with it."""
        import threading
        import tracemalloc

        A, mn, _ = bounds
        f = tsqr(A)
        B = np.ones((self.M, 1), dtype=np.float32)
        tracemalloc.start()
        try:
            worker = threading.Thread(target=f.apply_qt, args=(B,))
            worker.start()
            worker.join()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.01 * mn, f"held {held / mn:.3f} x A.nbytes"
        assert np.allclose(B[: self.N, 0], f.apply_qt(np.ones(self.M))[: self.N], atol=1e-3)

    def test_forming_q_over_leaves_no_v_in_the_scratch(self):
        """Forming Q over the reflectors copies each block's V into a
        buffer freed on return: the thread's shared ``apply_wy`` scratch
        keeps none of it (it kept one block of V: at 2048 x 2048, one
        block, the whole 32 MiB)."""
        import threading

        held = []

        def run():
            A = np.random.default_rng(0).standard_normal((2048, 2048))
            plan_qr(2048, 2048).execute(A)
            held.append(sum(b.size for b in getattr(wy._TLS, "work", {}).values()))

        worker = threading.Thread(target=run)  # a fresh thread: an empty scratch
        worker.start()
        worker.join()
        assert held and held[0] <= wy._CHUNK_ELEMS, held


def _layout(A: np.ndarray, order: str) -> np.ndarray:
    if order == "F":
        return np.asfortranarray(A)
    if order == "strided":
        buf = np.zeros((2 * A.shape[0], 2 * A.shape[1]), dtype=A.dtype)
        view = buf[::2, ::2]
        view[...] = A
        return view
    return A


def _graded_input(m: int, n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (rng.standard_normal((m, n)) * np.logspace(0, -12, n)) @ V


class TestFormQOverReflectors:
    """Q formed over the level-0 reflectors it replaces (``orgqr``'s way)
    has the bits of Q formed beside them.

    ``tsqr_qr``, ``execute(A)`` and ``execute(A, out=buf)`` of a one-panel
    look-ahead plan (``batched``, ``lookahead``, ``auto``'s fallback)
    factor the level-0 blocks in Q's buffer; ``plan.factor(A).form_q()``
    keeps the factors and forms Q in a new array.  Shapes at the default
    32n-row blocks: uniform ``geqrt`` blocks with a ``geqrt`` tail, with a
    tail small enough for the gufunc, with a tail shorter than the width,
    a single block, and a single gufunc block (nothing lives in Q).
    """

    SHAPES = {
        "geqrt_tail": (5 * 1280 + 811, 40),
        "gufunc_tail": (2 * 640 + 37, 20),
        "tail_below_width": (2 * 640 + 3, 20),
        "single_block": (600, 20),
        "exact_blocks": (4 * 640, 20),
        "gufunc_block": (300, 10),
    }
    IN_PLACE = {"gufunc_block": False}

    @staticmethod
    def _form_q_spans(session):
        return [s.args["in_place"] for s in session.trace.by_cat("form_q")]

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_execute_equals_factor_then_form_q(self, rng, shape, dtype, order):
        m, n = self.SHAPES[shape]
        A = _layout(rng.standard_normal((m, n)).astype(dtype), order)
        in_place = self.IN_PLACE.get(shape, True)
        for path in ("batched", "lookahead"):
            plan = plan_qr(m, n, dtype, ExecutionPolicy(path=path))
            f = plan.factor(A)
            Q_ref, R_ref = f.form_q(), f.R
            with obs.capture() as session:
                Q, R = plan.execute(A)
            assert self._form_q_spans(session) == [in_place]
            assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)
            buf = np.full((m, n), np.nan, dtype=dtype)
            Q, R = plan.execute(A, out=buf)
            assert Q is buf
            assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", ["geqrt_tail", "gufunc_tail", "single_block"])
    def test_auto_fallback_equals_tree_factor(self, shape, dtype):
        from repro.runtime import count_fallbacks

        m, n = self.SHAPES[shape]
        A = _graded_input(m, n).astype(dtype)
        f = plan_qr(m, n, dtype, ExecutionPolicy()).factor(A)
        auto = plan_qr(m, n, dtype, ExecutionPolicy(path="auto"))
        buf = np.empty((m, n), dtype=dtype)
        with count_fallbacks() as fb, obs.capture() as session:
            results = [auto.execute(A), auto.execute(A, out=buf), auto.factor(A)]
        assert fb.fallbacks == 3
        assert self._form_q_spans(session) == [True] * 3
        Q_ref = f.form_q()
        for Q, R in results[:2]:
            assert np.array_equal(Q, Q_ref) and np.array_equal(R, f.R)
        assert np.array_equal(results[2].form_q(), Q_ref)

    @pytest.mark.parametrize("path", ["batched", "structured"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_tsqr_qr_equals_tsqr_form_q(self, rng, shape, dtype, path):
        m, n = self.SHAPES[shape]
        A = rng.standard_normal((m, n)).astype(dtype)
        policy = ExecutionPolicy(path=path)
        f = tsqr(A, policy=policy)
        with obs.capture() as session:
            Q, R = tsqr_qr(A, policy=policy)
        assert self._form_q_spans(session) == [self.IN_PLACE.get(shape, True)]
        assert np.array_equal(Q, f.form_q()) and np.array_equal(R, f.R)


class TestSpentFactors:
    """Factors whose reflectors Q has overwritten refuse every further use."""

    def test_formed_over_raises(self, rng):
        from repro.graph.executor import run_lookahead_schedule

        A = rng.standard_normal((2 * 640 + 37, 20))
        ref = plan_qr(*A.shape).factor(A)
        buf = np.empty_like(A)
        f = run_lookahead_schedule(build_lookahead_schedule(*A.shape, ExecutionPolicy()), A, buf)
        assert f.form_q(out=buf) is buf
        assert np.array_equal(buf, ref.form_q())
        B = rng.standard_normal((A.shape[0], 3))
        panel = f.panels[0].factors
        uses = {
            "apply_qt": lambda: f.apply_qt(B.copy()),
            "apply_q": lambda: f.apply_q(B.copy()),
            "form_q": f.form_q,
            "form_q(out)": lambda: f.form_q(out=buf),
            "plan": lambda: panel.plan,
        }
        for name, use in uses.items():
            with pytest.raises(ValueError, match="reflectors were overwritten"):
                use()

    def test_kept_factors_form_and_apply_again(self, rng):
        A = rng.standard_normal((2 * 640 + 37, 20))
        f = plan_qr(*A.shape).factor(A)
        Q1 = f.form_q()
        buf = np.empty_like(Q1)
        assert f.form_q(out=buf) is buf
        Q2 = f.form_q()
        assert np.array_equal(Q1, buf) and np.array_equal(Q1, Q2)
        C = f.apply_qt(A.copy())
        assert np.abs(C[:20] - f.R).max() < 1e-13 * np.abs(f.R).max()
        assert np.abs(C[20:]).max() < 1e-13 * np.abs(f.R).max()
        assert np.array_equal(f.form_q(), Q1)
        assert f.panels[0].factors.tree.n_blocks == 3
