"""Minimal repros of every bug the differential fuzz harness caught.

Each test pins one fixed bug with the smallest input that triggered it,
per the guard-rails PR policy: a divergence found by ``python -m repro
verify`` becomes a regression test here alongside its fix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.caqr import caqr_qr
from repro.core.householder import house
from repro.runtime import ExecutionPolicy
from repro.smallblas.batched import batched_house
from repro.verify.invariants import check_qr, qr_invariants
from tests import reference_qr


def _caqr_qr(A, path, **geometry):
    """CAQR's ``(Q, R)`` under ``path``; ``seed`` names the per-node reference."""
    if path == "seed":
        return reference_qr.caqr_qr(A, **geometry)
    return caqr_qr(A, policy=ExecutionPolicy(path=path, **geometry))


class TestLookaheadZeroPanelDeadlock:
    """BUG: ``caqr`` on a ``lookahead`` policy with ``workers > 1`` hung
    forever on inputs producing zero panels (0 rows, 0 columns): the
    thread pool waited on a completion event that no task would ever
    set.  Found by the fuzz grid's first case, ``FuzzCase(0, 5)`` on
    the threaded look-ahead identity.  The driver now runs on one thread
    and the pool is gone; the zero-panel run still goes through the
    look-ahead path under a timeout, so a hang would show as a failure."""

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_degenerate_threaded_lookahead_completes(self, shape):
        ex = ThreadPoolExecutor(1)
        policy = ExecutionPolicy(path="lookahead")
        fut = ex.submit(caqr_qr, np.zeros(shape), policy=policy)
        try:
            Q, R = fut.result(timeout=30)  # deadlock -> TimeoutError, not a hang
        finally:
            ex.shutdown(wait=False)
        Qn, Rn = np.linalg.qr(np.zeros(shape), mode="reduced")
        assert Q.shape == Qn.shape and R.shape == Rn.shape


class TestFloat32ReflectorOverflow:
    """BUG: ``house``/``batched_house`` squared the vector norm without
    rescaling, so float32 data at 1e30 overflowed (1e60 > float32 max)
    and the seed and structured paths returned NaN factors while the
    LAPACK-backed paths stayed finite.  Found by an extreme-scale sweep;
    fixed with slarfg-style rescaling; the fuzz grid's ``huge`` kind now
    covers it."""

    def _huge(self):
        rng = np.random.default_rng(7)
        return (1e30 * rng.standard_normal((90, 10))).astype(np.float32)

    @pytest.mark.parametrize("path", ["seed", "batched", "structured", "lookahead"])
    def test_huge_float32_stays_finite(self, path):
        A = self._huge()
        Q, R = _caqr_qr(A, path, panel_width=4, block_rows=16)
        check_qr(A, Q, R)

    def test_house_rescales(self):
        v, tau, beta = house(np.array([3e30, 4e30], dtype=np.float32))
        assert np.isfinite(v).all() and np.isfinite(beta)
        assert abs(abs(beta) - 5e30) < 1e25  # ||x|| = 5e30

    def test_batched_house_rescales(self):
        X = np.array([[3e30, 4e30], [3.0, 4.0]], dtype=np.float32)
        V, tau, beta = batched_house(X)
        assert np.isfinite(V).all() and np.isfinite(beta).all()
        # The rescaled lane agrees with the in-range lane up to scale.
        assert abs(abs(beta[0]) - 5e30) < 1e25
        assert abs(abs(beta[1]) - 5.0) < 1e-5


class TestFloat32ReflectorUnderflow:
    """BUG (same root cause, opposite end): tails whose squares underflow
    to zero were misread as already-reduced vectors and got identity
    reflectors, silently skipping the elimination.  The fuzz grid's
    ``tiny`` kind now covers it."""

    def test_house_tiny_tail_not_identity(self):
        v, tau, beta = house(np.array([3e-30, 4e-30], dtype=np.float32))
        assert tau != 0.0  # identity reflector would leave x[1] uneliminated
        assert abs(abs(beta) - 5e-30) < 1e-35

    def test_tiny_float32_factors_accurately(self):
        rng = np.random.default_rng(7)
        A = (1e-30 * rng.standard_normal((60, 6))).astype(np.float32)
        for path in ("seed", "batched", "structured"):
            Q, R = _caqr_qr(A, path, panel_width=3, block_rows=12)
            check_qr(A, Q, R)


class TestComplexTruncation:
    """BUG: complex input was silently cast to its real part (only a
    ComplexWarning), producing a plausible Q/R of corrupted data.  Now a
    TypeError at the single normalization chokepoint; the full
    entry-point matrix lives in ``test_guards.py``."""

    def test_minimal_repro(self):
        A = np.array([[1 + 1j, 2], [3, 4 - 2j]])
        with pytest.raises(TypeError, match="complex"):
            caqr_qr(A)


class TestNanBlindInvariants:
    """BUG in the checker itself: NaN metrics compare False against every
    tolerance, so a NaN-filled Q passed the invariant suite.  Finiteness
    is now an explicit first-class check (details in
    ``test_invariants.py``)."""

    def test_minimal_repro(self):
        A = np.eye(3)
        rep = qr_invariants(A, np.full((3, 3), np.nan), np.eye(3))
        assert rep.failures()


class TestCholQR2GradedFallback:
    """The CholeskyQR2 acceptance contract on adversarial spectra: a
    graded matrix past the guard's condition limit (the column-
    equilibrated estimate crossing ``~1/(8 sqrt(eps))``, or the Gram
    matrix going numerically indefinite outright) stops the first
    Cholesky pass.  ``path="cholqr2"`` must surface that as a
    :class:`CholeskyBreakdownError`; ``path="auto"`` must transparently
    take the look-ahead tree and still deliver <1e-14 orthogonality.
    Found while building the fast-path fuzz coverage (graded float32
    cases); pinned here at the breakdown boundary in float64."""

    def _graded(self, m=120, n=20, cond=1e10, seed=3):
        # m < 16 n on purpose: the row-sampled precheck is skipped, so
        # the refusal happens *inside* the factorization (Cholesky
        # breakdown at stage "gram", or the "condest" guard right after
        # it), not at the cheap precheck.  Column equilibration absorbs
        # about two decades of the grading, hence cond=1e10 to pin the
        # breakdown region with margin.
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((m, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (U * np.logspace(0, -np.log10(cond), n)) @ V.T

    def test_explicit_cholqr2_raises_breakdown(self):
        from repro.core.cholesky_qr import CholeskyBreakdownError
        from repro.runtime import ExecutionPolicy

        with pytest.raises(CholeskyBreakdownError):
            caqr_qr(self._graded(), policy=ExecutionPolicy(path="cholqr2"))

    def test_auto_falls_back_mid_factorization(self):
        from repro.runtime import ExecutionPolicy, count_fallbacks

        A = self._graded()
        with count_fallbacks() as counter:
            Q, R = caqr_qr(A, policy=ExecutionPolicy(path="auto"))
        assert counter.fallbacks == 1
        assert counter.stages[0] in ("gram", "condest")
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) < 1e-14
        check_qr(A, Q, R)

    def test_tall_graded_bails_at_the_sampled_precheck(self):
        from repro.runtime import ExecutionPolicy, count_fallbacks

        # m >= 16 n: the ~1% row-sampled Gram estimate must reject the
        # matrix before any O(mn^2) work.
        A = self._graded(m=640, n=20, cond=1e10)
        with count_fallbacks() as counter:
            Q, R = caqr_qr(A, policy=ExecutionPolicy(path="auto"))
        assert counter.fallbacks == 1
        assert counter.stages == ("condest_sample",)
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) < 1e-14

    def test_auto_never_falls_back_on_gaussian(self):
        from repro.runtime import ExecutionPolicy, count_fallbacks

        A = np.random.default_rng(5).standard_normal((640, 20))
        with count_fallbacks() as counter:
            Q, R = caqr_qr(A, policy=ExecutionPolicy(path="auto"))
        assert counter.fallbacks == 0
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) < 1e-14
        check_qr(A, Q, R)
