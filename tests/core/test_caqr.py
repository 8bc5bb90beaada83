"""Unit and integration tests for CAQR."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.core.caqr import caqr, caqr_qr
from repro.core.blocked import blocked_qr
from repro.core.validation import (
    factorization_error,
    orthogonality_error,
    sign_canonical,
    triangularity_error,
)
from repro.runtime import ExecutionPolicy
from repro.verify.fuzz import PATHS as FUZZ_PATHS, policy_for
from tests import reference_qr


class TestCAQRFactorization:
    @pytest.mark.parametrize(
        "m,n,pw,br",
        [
            (256, 64, 16, 64),  # paper-like grid
            (200, 50, 16, 64),  # ragged
            (128, 128, 16, 32),  # square
            (1000, 30, 8, 32),  # tall-skinny
            (64, 16, 16, 64),  # single panel
            (90, 25, 7, 13),  # nothing divides anything
        ],
    )
    @pytest.mark.parametrize("tree_shape", ["quad", "binomial"])
    def test_qr_quality(self, rng, m, n, pw, br, tree_shape):
        A = rng.standard_normal((m, n))
        policy = ExecutionPolicy(panel_width=pw, block_rows=br, tree_shape=tree_shape)
        Q, R = caqr_qr(A, policy=policy)
        assert factorization_error(A, Q, R) < 1e-12
        assert orthogonality_error(Q) < 1e-12
        assert triangularity_error(R) == 0.0

    def test_r_matches_scipy_canonical(self, rng):
        A = rng.standard_normal((160, 48))
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=16, block_rows=32))
        R_sp = scipy.linalg.qr(A, mode="r")[0][:48]
        _, Rc = sign_canonical(Q, R)
        _, Rsp_c = sign_canonical(np.zeros((48, 48)), R_sp)
        assert np.allclose(Rc, Rsp_c, atol=1e-9)

    def test_matches_blocked_householder(self, rng):
        A = rng.standard_normal((120, 40))
        Qc, Rc = caqr_qr(A, policy=ExecutionPolicy(panel_width=8, block_rows=24))
        Qb, Rb = blocked_qr(A, nb=8)
        _, Rc_ = sign_canonical(Qc, Rc)
        _, Rb_ = sign_canonical(Qb, Rb)
        assert np.allclose(Rc_, Rb_, atol=1e-10)

    def test_wide_matrix(self, rng):
        A = rng.standard_normal((40, 100))
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=8, block_rows=16))
        assert Q.shape == (40, 40)
        assert R.shape == (40, 100)
        assert factorization_error(A, Q, R) < 1e-12

    def test_panel_width_larger_than_n(self, rng):
        A = rng.standard_normal((100, 10))
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=64, block_rows=32))
        assert factorization_error(A, Q, R) < 1e-13

    def test_single_column(self, rng):
        A = rng.standard_normal((77, 1))
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=4, block_rows=16))
        assert abs(abs(R[0, 0]) - np.linalg.norm(A)) < 1e-12

    def test_rank_deficient(self, rng):
        B = rng.standard_normal((150, 5))
        A = B @ rng.standard_normal((5, 30))  # rank 5
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=8, block_rows=32))
        assert factorization_error(A, Q, R) < 1e-12
        # R's diagonal collapses after the rank.
        d = np.abs(np.diag(R))
        assert d[5:].max() < 1e-10 * d[0]

    def test_invalid_panel_width(self, rng):
        with pytest.raises(ValueError):
            caqr(rng.standard_normal((10, 10)), policy=ExecutionPolicy(panel_width=0))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            caqr(np.zeros(5))

    def test_input_unmodified(self, rng):
        A = rng.standard_normal((64, 32))
        A0 = A.copy()
        caqr(A, policy=ExecutionPolicy(panel_width=16, block_rows=32))
        assert np.array_equal(A, A0)


class TestCAQRApply:
    def test_apply_qt_annihilates_below_r(self, rng):
        A = rng.standard_normal((96, 32))
        f = caqr(A, policy=ExecutionPolicy(panel_width=16, block_rows=32))
        QtA = f.apply_qt(A.copy())
        assert np.allclose(np.triu(QtA[:32]), f.R, atol=1e-12)
        assert np.linalg.norm(QtA[32:]) < 1e-10
        assert np.linalg.norm(np.tril(QtA[:32], -1)) < 1e-10

    def test_roundtrip(self, rng):
        A = rng.standard_normal((128, 48))
        f = caqr(A, policy=ExecutionPolicy(panel_width=16, block_rows=32))
        B = rng.standard_normal((128, 6))
        out = f.apply_q(f.apply_qt(B.copy()))
        assert np.allclose(out, B, atol=1e-12)

    def test_form_q_matches_apply(self, rng):
        A = rng.standard_normal((80, 20))
        f = caqr(A, policy=ExecutionPolicy(panel_width=8, block_rows=16))
        Q = f.form_q()
        B = rng.standard_normal((20, 3))
        got = f.apply_q(np.vstack([B, np.zeros((60, 3))]))
        assert np.allclose(got, Q @ B, atol=1e-12)

    def test_row_mismatch_raises(self, rng):
        f = caqr(rng.standard_normal((32, 8)), policy=ExecutionPolicy(panel_width=4, block_rows=8))
        with pytest.raises(ValueError):
            f.apply_q(np.zeros((31, 1)))

    def test_panel_count(self, rng):
        policy = ExecutionPolicy(panel_width=16, block_rows=64)
        f = caqr(rng.standard_normal((128, 64)), policy=policy)
        assert len(f.panels) == 4
        assert [p.col_start for p in f.panels] == [0, 16, 32, 48]
        # Grid redrawn lower by the panel width each step.
        assert [p.row_start for p in f.panels] == [0, 16, 32, 48]


class TestOneFactorClass:
    """Every in-core path returns CAQRFactors, and each accepts the same
    calls; so does the per-node reference (``seed``), whose panels hold
    its own TSQR factors."""

    PATHS = ["seed", "batched", "structured", "lookahead"]

    @pytest.mark.parametrize("path", PATHS)
    def test_apply_to_a_vector(self, rng, path):
        A = rng.standard_normal((300, 40))
        if path == "seed":
            f = reference_qr.caqr(A, panel_width=16)
        else:
            f = caqr(A, policy=ExecutionPolicy(path=path, panel_width=16))
        b = rng.standard_normal(300)
        qtb = f.apply_qt(b.copy())
        assert qtb.shape == (300,)
        np.testing.assert_array_equal(qtb, f.apply_qt(b.copy()[:, None])[:, 0])
        np.testing.assert_allclose(f.apply_q(qtb), b, atol=1e-12)

    def test_default_is_the_lookahead_driver(self, rng, monkeypatch):
        import repro.graph.executor as executor
        from repro.core.caqr import CAQRFactors
        from repro.runtime.policy import LOOKAHEAD, PATHS

        calls = []
        real = executor.run_lookahead_schedule
        monkeypatch.setattr(
            executor, "run_lookahead_schedule", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        f = caqr(rng.standard_normal((500, 20)))
        assert calls == [1] and isinstance(f, CAQRFactors)
        assert [p for p, spec in PATHS.items() if spec.engine is LOOKAHEAD] == [
            "batched", "structured", "lookahead"
        ]


# What ``caqr`` returns on each path, as its docstring lists it: the
# factor class and its ``apply_qt`` / ``apply_q``: in place on an m-row
# ``B`` ("m"), between m-row and k-row blocks on the explicit thin Q
# ("k"), or absent (None).  Keyed by the engine table's path names, so
# a new path fails here until the docstring and this table name it.
FACTOR_SURFACE = {
    "batched": ("CAQRFactors", "m"),
    "structured": ("CAQRFactors", "m"),
    "lookahead": ("CAQRFactors", "m"),
    "cholqr2": ("CholQRFactors", "k"),
    "cholqr2_mixed": ("CholQRFactors", "k"),
    "auto": ("CholQRFactors", "k"),
    "sharded": ("ShardedCAQRFactors", "m"),
    "streaming": ("StreamingCAQRFactors", "m"),
}


class TestFactorSurface:
    """The per-path factor objects ``caqr``'s docstring promises."""

    def test_table_names_every_path(self):
        from repro.runtime.policy import PATHS

        assert set(FACTOR_SURFACE) == set(PATHS)

    @pytest.mark.parametrize("name", list(FUZZ_PATHS))
    def test_factors_support_what_the_docstring_says(self, rng, name):
        policy = policy_for(name, panel_width=None, block_rows=None)
        cls, apply = FACTOR_SURFACE[policy.path]
        m, n = 300, 20
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, 2))
        f = caqr(A, policy=policy)
        assert type(f).__name__ == cls
        Q = f.form_q()
        assert Q.shape == (m, n) and f.R.shape == (n, n)
        if apply is None:
            assert not hasattr(f, "apply_qt") and not hasattr(f, "apply_q")
        elif apply == "m":
            C = B.copy()
            assert f.apply_qt(C) is C and C.shape == (m, 2)
            np.testing.assert_allclose(C[:n], Q.T @ B, atol=1e-12)
            assert f.apply_q(C) is C
            np.testing.assert_allclose(C, B, atol=1e-12)
        else:
            Y = f.apply_qt(B)
            assert Y.shape == (n, 2)
            np.testing.assert_allclose(Y, Q.T @ B, atol=1e-12)
            Z = f.apply_q(Y)
            assert Z.shape == (m, 2)
            np.testing.assert_allclose(Z, Q @ Y, atol=1e-12)
