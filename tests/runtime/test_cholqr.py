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
from repro.verify.invariants import qr_tolerance


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
        """No column-norm pass runs on an in-range input, refused or not:
        the row-sampled precheck equilibrates the sample through its own
        Gram's diagonal, and an admitted input's scales are read off the
        full Gram's diagonal."""
        shapes = _spy_column_scales(monkeypatch)
        m, n = 4096, 16
        with count_fallbacks() as counter:
            f = run_cholqr(_graded(m, n, 1e12), ExecutionPolicy(path="auto"))
        assert f.fell_back and f.fallback_stage == "condest_sample"
        assert counter.fallbacks == 1
        with pytest.raises(CholeskyBreakdownError, match="condest_sample"):
            run_cholqr(_graded(m, n, 1e12), ExecutionPolicy(path="cholqr2"))
        assert not run_cholqr(_gauss(m, n), ExecutionPolicy(path="auto")).fell_back
        assert shapes == []


def _spy_column_scales(monkeypatch) -> list:
    """Record the shape of every ``_column_scales`` call."""
    import importlib

    cq = importlib.import_module("repro.core.cholesky_qr")
    real, shapes = cq._column_scales, []

    def spy(A):
        shapes.append(A.shape)
        return real(A)

    monkeypatch.setattr(cq, "_column_scales", spy)
    return shapes


# (dtype, path, column scale) of inputs whose Gram diagonal is in range
# in the Gram's dtype, and of inputs whose squares overflow or
# underflow there (a float32 Gram of a 1e40 float64 cast is inf).
IN_RANGE = {
    "float64": (np.float64, "auto", 1.0),
    "float32": (np.float32, "auto", 1.0),
    "mixed": (np.float64, "cholqr2_mixed", 1.0),
    "float64-1e+100": (np.float64, "auto", 1e100),
    "float64-1e-100": (np.float64, "auto", 1e-100),
    "float64-columns-1e+-100": (np.float64, "auto", np.logspace(-100, 100, 32)),
}
OUT_OF_RANGE = {
    "float64-1e-160": (np.float64, "auto", 1e-160),
    "float32-1e+30": (np.float32, "auto", 1e30),
    "float32-1e-30": (np.float32, "auto", 1e-30),
    "mixed-cast-overflow": (np.float64, "cholqr2_mixed", 1e40),
}


def _scaled(dtype, scale, m=4096, n=32):
    return (_gauss(m, n) * scale).astype(dtype)


class TestScalesFromTheGram:
    """The column scales are read off the Gram's diagonal; only squares
    that overflow or underflow in the Gram's dtype equilibrate A first."""

    @pytest.mark.parametrize("case", list(IN_RANGE))
    def test_in_range_inputs_run_no_column_norm_pass(self, monkeypatch, case):
        dtype, path, scale = IN_RANGE[case]
        shapes = _spy_column_scales(monkeypatch)
        A = _scaled(dtype, scale)
        f = run_cholqr(A, ExecutionPolicy(path=path))
        assert not f.fell_back and shapes == []
        tol = qr_tolerance(*A.shape, dtype)
        Q, R = f.form_q().astype(np.float64), f.R.astype(np.float64)
        assert np.linalg.norm(A - Q @ R) <= tol * np.linalg.norm(A)
        assert np.linalg.norm(Q.T @ Q - np.eye(A.shape[1])) <= tol

    @pytest.mark.parametrize("case", list(OUT_OF_RANGE))
    def test_out_of_range_inputs_equilibrate_first_once(self, monkeypatch, case):
        dtype, path, scale = OUT_OF_RANGE[case]
        shapes = _spy_column_scales(monkeypatch)
        A = _scaled(dtype, scale)
        f = run_cholqr(A, ExecutionPolicy(path=path))
        assert not f.fell_back and shapes == [A.shape]
        # Norms in float64 of the unscaled problem: the scale cancels.
        tol = qr_tolerance(*A.shape, dtype)
        A64 = A.astype(np.float64) / scale
        Q, R = f.form_q().astype(np.float64), f.R.astype(np.float64) / scale
        assert np.linalg.norm(A64 - Q @ R) <= tol * np.linalg.norm(A64)
        assert np.linalg.norm(Q.T @ Q - np.eye(A.shape[1])) <= tol

    @pytest.mark.parametrize("col_scales", [False, True], ids=["plain", "scaled-1e+-100"])
    @pytest.mark.parametrize("cond", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_condest_matches_equilibrate_first(self, cond, col_scales):
        """On a graded ladder, with columns spread over 1e-100..1e100 or
        not, the first-pass estimate equals the one of A divided by its
        column norms to 4 significant digits."""
        m, n = 4096, 32
        A = _graded(m, n, cond)
        if col_scales:
            A = A * np.logspace(-100, 100, n)
        s = np.linalg.norm(A, axis=0)
        W = A / s
        d = np.diagonal(np.linalg.cholesky(W.T @ W))
        reference = d.max() / d.min()
        f = run_cholqr(A, ExecutionPolicy(path="cholqr2"))
        assert f.info.condest == pytest.approx(reference, rel=5e-4)
        tol = qr_tolerance(m, n, np.float64)
        Q = f.form_q()
        assert np.linalg.norm((A - Q @ f.R) / s) <= tol * np.linalg.norm(W)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= tol


class TestStreamedBytes:
    """``cholqr_stream_bytes`` counts every pass over an m x n operand
    (A, Q's buffer, the float32 cast), in multiples of ``A.nbytes``."""

    @staticmethod
    def _passes(A, path):
        from repro import obs

        with obs.capture() as session:
            f = run_cholqr(A, ExecutionPolicy(path=path))
        t = session.trace
        return f, t, t.total_counters().get("cholqr_stream_bytes", 0) / A.nbytes

    def test_fused_in_range_is_five_passes_with_spans(self):
        # Copy A into W (read, write), its Gram (read), one trmm (read,
        # write); the parent's engine made 6 (no copy, but a norm pass
        # and a divide).
        A = _gauss(4096, 32)
        f, t, passes = self._passes(A, "auto")
        assert f.info.fused and passes == 5
        (factor,) = [s for s in t.spans if s.name == "cholqr.factor"]
        children = [c.name for c in t.children(factor.id)]
        assert children == ["cholqr.sample", "cholqr.gram", "cholqr.form_q"]
        gram = [s for s in t.spans if s.name == "cholqr.gram"][0]
        assert gram.args["prescaled"] is False
        assert gram.counters["cholqr_stream_bytes"] == 3 * A.nbytes

    def test_refusal_at_the_sample_streams_nothing(self):
        f, t, passes = self._passes(_graded(4096, 32, 1e12), "auto")
        assert f.fell_back and f.fallback_stage == "condest_sample"
        assert passes == 0
        assert not [s for s in t.spans if s.name == "cholqr.gram"]

    @pytest.mark.parametrize(
        "case,expected",
        [
            # copy 2, Gram 1, trmm 2, Gram 1, trmm 2
            ("two-pass", 8),
            # copy 2, float32 cast 1.5 and its Gram 0.5, then two-pass 5
            ("mixed", 9),
            # float32 bytes: the same five passes as float64
            ("float32", 5),
            # + norms 1, divide 2, Gram 1 before the trmm
            ("float64-1e-160", 9),
            # + norms re-measured under a max-abs pre-scale: 6 more
            ("float64-1e-170", 15),
            ("float32-1e+30", 9),
            # copy 2, cast + Gram 2, norms 1, divide 2, cast + Gram 2, then 5
            ("mixed-cast-overflow", 14),
        ],
    )
    def test_branch_counts(self, case, expected):
        A, path = {
            "two-pass": (_graded(4096, 32, 1e4), "cholqr2"),
            "mixed": (_gauss(4096, 32), "cholqr2_mixed"),
            "float32": (_gauss(4096, 32, dtype=np.float32), "auto"),
            "float64-1e-160": (_scaled(np.float64, 1e-160), "auto"),
            "float64-1e-170": (_scaled(np.float64, 1e-170), "auto"),
            "float32-1e+30": (_scaled(np.float32, 1e30), "auto"),
            "mixed-cast-overflow": (_scaled(np.float64, 1e40), "cholqr2_mixed"),
        }[case]
        f, _, passes = self._passes(A, path)
        assert not f.fell_back and passes == expected


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
