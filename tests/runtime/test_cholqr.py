"""The CholeskyQR2 runtime layer: guard thresholds, fallback semantics,
counters, the factors API, and workspace reuse.

The numeric engine itself is covered by ``tests/core`` and the fuzz
grid; these tests pin the *policy* behaviour — who refuses, who falls
back, what gets counted — which is the part
``tools/lint_layering.py`` says may only live in ``repro.runtime``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.cholesky_qr import CholeskyBreakdownError, CholQRWorkspace
from repro.runtime import ExecutionPolicy, count_fallbacks, plan_qr
from repro.runtime.cholqr import (
    ORTH1_LIMIT,
    CholQRFactors,
    CholQRGuard,
    _FallbackRequested,
    run_cholqr,
)


def _gauss(m, n, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal((m, n)).astype(dtype)


def _graded(m, n, cond, seed=0):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * np.logspace(0, -math.log10(cond), n)) @ V.T


class TestGuardThresholds:
    def test_float64_limit(self):
        g = CholQRGuard.for_policy(ExecutionPolicy(path="cholqr2"), np.float64)
        assert g.condition_limit == pytest.approx(
            1.0 / (8.0 * math.sqrt(np.finfo(np.float64).eps))
        )
        assert g.orth_limit == ORTH1_LIMIT
        assert not g.fallback

    @pytest.mark.parametrize(
        "path,dtype",
        [("cholqr2", np.float32), ("cholqr2_mixed", np.float64)],
        ids=["float32-data", "mixed-gram"],
    )
    def test_float32_gram_limit(self, path, dtype):
        g = CholQRGuard.for_policy(ExecutionPolicy(path=path), dtype)
        assert g.condition_limit == pytest.approx(
            0.5 / math.sqrt(np.finfo(np.float32).eps)
        )

    def test_policy_condition_limit_overrides(self):
        pol = ExecutionPolicy(path="cholqr2", condition_limit=123.0)
        g = CholQRGuard.for_policy(pol, np.float64)
        assert g.condition_limit == 123.0

    def test_auto_selects_fallback_disposition(self):
        g = CholQRGuard.for_policy(ExecutionPolicy(path="auto"), np.float64)
        assert g.fallback
        with pytest.raises(_FallbackRequested) as exc:
            g("condest", g.condition_limit * 2)
        assert exc.value.stage == "condest"

    def test_explicit_path_raises_breakdown(self):
        g = CholQRGuard.for_policy(ExecutionPolicy(path="cholqr2"), np.float64)
        with pytest.raises(CholeskyBreakdownError) as exc:
            g("orth1", 1.0)
        assert exc.value.stage == "orth1"

    def test_nan_refuses(self):
        g = CholQRGuard.for_policy(ExecutionPolicy(path="cholqr2"), np.float64)
        with pytest.raises(CholeskyBreakdownError):
            g("condest", float("nan"))

    def test_within_limits_is_silent(self):
        g = CholQRGuard.for_policy(ExecutionPolicy(path="cholqr2"), np.float64)
        g("condest_sample", 10.0)
        g("condest", 10.0)
        g("orth1", 1e-8)


class TestGramKernel:
    def test_sample_and_full_gram_go_through_gram(self, monkeypatch):
        """``auto``'s row-sampled precheck forms its Gram with the kernel
        the full Gram uses (SciPy ``syrk`` when bound), not NumPy matmul."""
        import importlib

        cq = importlib.import_module("repro.core.cholesky_qr")
        real, shapes = cq.gram, []

        def spy(W, dtype=None):
            shapes.append(W.shape)
            return real(W, dtype=dtype)

        monkeypatch.setattr(cq, "gram", spy)
        m, n = 4096, 32
        f = run_cholqr(_gauss(m, n), ExecutionPolicy(path="auto"))
        assert not f.fell_back
        sample_rows = len(range(0, m, m // (8 * n)))
        assert shapes == [(sample_rows, n), (m, n)]


class TestSamplePrecheck:
    def test_refused_tall_input_skips_the_full_column_scales(self, monkeypatch):
        """The row-sampled precheck equilibrates the sample by its own
        column norms and runs before the column scales of all of A, so a
        tall input it refuses costs no full-size pass; an admitted one
        computes the full scales once, after it."""
        import importlib

        cq = importlib.import_module("repro.core.cholesky_qr")
        real, shapes = cq._column_scales, []

        def spy(A):
            shapes.append(A.shape)
            return real(A)

        monkeypatch.setattr(cq, "_column_scales", spy)
        m, n = 4096, 16
        sample = (len(range(0, m, m // (8 * n))), n)
        with count_fallbacks() as counter:
            f = run_cholqr(_graded(m, n, 1e12), ExecutionPolicy(path="auto"))
        assert f.fell_back and f.fallback_stage == "condest_sample"
        assert counter.fallbacks == 1
        assert shapes == [sample]
        shapes.clear()
        with pytest.raises(CholeskyBreakdownError, match="condest_sample"):
            run_cholqr(_graded(m, n, 1e12), ExecutionPolicy(path="cholqr2"))
        assert shapes == [sample]
        shapes.clear()
        assert not run_cholqr(_gauss(m, n), ExecutionPolicy(path="auto")).fell_back
        assert shapes == [sample, (m, n)]


class TestFallbackSemantics:
    def test_explicit_path_refuses_tight_limit(self):
        pol = ExecutionPolicy(path="cholqr2", condition_limit=1.001)
        with pytest.raises(CholeskyBreakdownError, match="condition_limit|limit"):
            run_cholqr(_gauss(64, 8), pol)

    def test_auto_falls_back_and_counts(self):
        pol = ExecutionPolicy(path="auto", condition_limit=1.001)
        A = _gauss(64, 8)
        with count_fallbacks() as counter:
            f = run_cholqr(A, pol)
        assert f.fell_back
        assert f.fallback_stage in ("condest", "condest_sample")
        assert counter.fallbacks == 1
        Q = f.form_q()
        np.testing.assert_allclose(Q @ f.R, A, atol=1e-12)
        assert np.linalg.norm(Q.T @ Q - np.eye(8)) < 1e-14

    def test_fallback_matches_lookahead_bitwise(self):
        A = _graded(96, 12, 1e10)
        auto = run_cholqr(A, ExecutionPolicy(path="auto"))
        assert auto.fell_back
        from repro.core.caqr import caqr_qr

        Qla, Rla = caqr_qr(A, policy=ExecutionPolicy(path="lookahead"))
        np.testing.assert_array_equal(auto.form_q(), Qla)
        np.testing.assert_array_equal(auto.R, Rla)

    def test_fallback_span_names_its_geometry(self):
        """The ``cholqr.fallback`` span records the tree's panel count and
        level-0 height: unset, the fallback runs as one 32n-row panel."""
        from repro import obs

        A = _graded(4100, 40, 1e10)
        for width, panels, block_rows in ((None, 1, 1280), (16, 3, 512)):
            with obs.capture() as session:
                f = run_cholqr(A, ExecutionPolicy(path="auto", panel_width=width))
            assert f.fell_back
            (span,) = [s for s in session.trace.spans if s.name == "cholqr.fallback"]
            assert span.args["panels"] == panels
            assert span.args["block_rows"] == block_rows
            assert span.args["stage"] == f.fallback_stage
            assert span.counters == {"cholqr_fallbacks": 1}

    def test_counters_nest_and_unwind(self):
        pol = ExecutionPolicy(path="auto", condition_limit=1.001)
        with count_fallbacks() as outer:
            run_cholqr(_gauss(40, 5), pol)
            with count_fallbacks() as inner:
                run_cholqr(_gauss(40, 5, seed=1), pol)
            run_cholqr(_gauss(40, 5, seed=2), pol)
        assert inner.fallbacks == 1
        assert outer.fallbacks == 3

    def test_no_fallback_on_gaussian(self):
        with count_fallbacks() as counter:
            f = run_cholqr(_gauss(256, 16), ExecutionPolicy(path="auto"))
        assert counter.fallbacks == 0 and not f.fell_back


class TestFactorsAPI:
    def test_apply_roundtrip_and_shape(self):
        A = _gauss(50, 6)
        f = run_cholqr(A, ExecutionPolicy(path="cholqr2"))
        assert isinstance(f, CholQRFactors)
        assert f.shape == (50, 6)
        assert f.info is not None and not f.fell_back
        Q = f.form_q()
        B = _gauss(6, 3, seed=9)
        np.testing.assert_allclose(f.apply_q(B), Q @ B)
        np.testing.assert_allclose(f.apply_qt(Q @ B), B, atol=1e-12)

    def test_wide_matrix_trailing_columns(self):
        A = _gauss(5, 9)
        f = run_cholqr(A, ExecutionPolicy(path="cholqr2"))
        Q, R = f.form_q(), f.R
        assert Q.shape == (5, 5) and R.shape == (5, 9)
        np.testing.assert_allclose(Q @ R, A, atol=1e-13)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_degenerate_shapes(self, shape):
        f = run_cholqr(np.zeros(shape), ExecutionPolicy(path="cholqr2"))
        k = min(shape)
        assert f.form_q().shape == (shape[0], k)
        assert f.R.shape == (k, shape[1])

    def test_float32_preserved(self):
        f = run_cholqr(_gauss(48, 6, dtype=np.float32), ExecutionPolicy(path="cholqr2"))
        assert f.form_q().dtype == np.float32 and f.R.dtype == np.float32


class TestPlanIntegration:
    def test_workspace_reused_across_executes(self):
        plan = plan_qr(64, 8, policy=ExecutionPolicy(path="cholqr2_mixed"))
        ws1 = plan._cholqr_workspace()
        ws2 = plan._cholqr_workspace()
        assert ws1 is ws2 and isinstance(ws1, CholQRWorkspace)
        A = _gauss(64, 8)
        Q1, R1 = plan.execute(A)
        Q2, R2 = plan.execute(A)
        np.testing.assert_array_equal(Q1, Q2)
        np.testing.assert_array_equal(R1, R2)
        # The mixed path's float32 Gram cast buffer was cached in place.
        assert any(key[0] == "gram32" for key in ws1._bufs)

    def test_auto_plan_prebuilds_fallback_schedule(self):
        plan = plan_qr(64, 8, policy=ExecutionPolicy(path="auto"))
        assert plan._schedule is not None
        plain = plan_qr(64, 8, policy=ExecutionPolicy(path="cholqr2"))
        assert plain._schedule is None

    def test_plan_matches_direct_call_bitwise(self):
        from repro.core.caqr import caqr_qr

        for path in ("cholqr2", "cholqr2_mixed", "auto"):
            pol = ExecutionPolicy(path=path)
            A = _gauss(70, 10, seed=11)
            Qp, Rp = plan_qr(70, 10, policy=pol).execute(A)
            Qd, Rd = caqr_qr(A, policy=pol)
            np.testing.assert_array_equal(Qp, Qd)
            np.testing.assert_array_equal(Rp, Rd)
