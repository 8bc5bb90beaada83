"""The differential fuzz harness: deterministic, clean, and able to detect.

The quick grid must pass (that is the CI smoke), case generation must be
reproducible from the seed, and — crucially — the harness must actually
report a divergence when handed a broken path, or a green run means
nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.verify import fuzz
from repro.verify.fuzz import FuzzCase, generate_cases, run_case, run_grid


class TestGridIsClean:
    def test_quick_grid_all_paths(self):
        report = run_grid(seed=0, quick=True)
        assert report.ok, report.format()
        assert report.paths_run == len(fuzz.PATHS)
        assert report.cases_run >= 50

    def test_every_table_path_has_a_fuzz_identity(self):
        from repro.runtime.policy import PATH_NAMES

        for name in PATH_NAMES:
            assert fuzz.PATHS[name]["path"] == name
            fuzz.policy_for(name)  # the fuzz supplies every required field
        assert set(fuzz.PATHS) == set(PATH_NAMES)

    def test_random_cases_sample(self):
        # A slice of the randomized portion (the full grid runs in CI).
        report = run_grid(seed=0, n_random=10, quick=False)
        assert report.ok, report.format()


class TestDeterminism:
    def test_same_seed_same_cases(self):
        assert generate_cases(seed=3) == generate_cases(seed=3)

    def test_different_seed_different_cases(self):
        assert generate_cases(seed=3) != generate_cases(seed=4)

    def test_case_build_is_deterministic(self):
        c = FuzzCase(17, 5, seed=9)
        np.testing.assert_array_equal(c.build(), c.build())

    def test_unset_width_is_covered(self):
        """The grid runs the engines' default width, where ``lookahead``
        (and ``auto``'s fallback) is one full-width panel."""
        quick = generate_cases(seed=0, quick=True)
        unset = {(c.dtype, c.kind) for c in quick if c.panel_width is None}
        assert {("float64", "gauss"), ("float32", "graded")} <= unset
        assert any(c.panel_width is None for c in generate_cases(seed=0)[len(quick):])

    def test_wide_matrix_coverage_guaranteed(self):
        cases = generate_cases(seed=0)
        assert any(c.m < c.n for c in cases)
        assert any(c.m == 0 or c.n == 0 for c in cases)
        assert any(c.kind == "huge" for c in cases)


class TestHarnessDetects:
    def test_repro_snippet_is_executable(self):
        case = FuzzCase(12, 4, panel_width=2, block_rows=4)
        ns: dict = {}
        exec(case.repro("batched"), ns)  # noqa: S102 - the point of the test
        assert ns["Q"].shape == (12, 4)

    def test_broken_path_is_reported(self, monkeypatch):
        """Feed the harness a path that corrupts R; it must diverge."""
        real = fuzz.caqr

        def corrupted(A, **kw):
            f = real(A, **kw)
            if kw["policy"].path == "lookahead" and f.R.size:
                f.R = f.R.copy()
                f.R[0, 0] *= 1.0 + 1e-3
            return f

        monkeypatch.setattr(fuzz, "caqr", corrupted)
        divs = run_case(FuzzCase(40, 8, panel_width=4, block_rows=8), paths=["lookahead", "batched"])
        assert divs, "harness failed to flag a corrupted factorization"
        assert any(d.check in ("vs-numpy", "pairwise", "invariants") for d in divs)

    def test_broken_execute_is_reported(self, monkeypatch):
        """An execute whose Q is one ulp off ``caqr(A).form_q()`` diverges,
        which no tolerance-based check would notice."""
        from repro.runtime.plan import QRPlan

        real = QRPlan.execute

        def corrupted(self, A, validated=False, out=None):
            Q, R = real(self, A, validated, out)
            if out is not None and self.policy.path == "lookahead":
                Q[0, 0] = np.nextafter(Q[0, 0], np.inf)
            return Q, R

        monkeypatch.setattr(QRPlan, "execute", corrupted)
        case = FuzzCase(1100, 20, panel_width=None, block_rows=None)
        divs = run_case(case, paths=["batched", "lookahead"])
        assert [(d.path, d.check) for d in divs] == [("lookahead", "execute")]
        assert "execute(A, out=buf)" in divs[0].detail

    def test_broken_tsqr_is_reported(self, monkeypatch):
        """Whole-matrix TSQR is checked on every case, each tree apart."""
        real = fuzz.tsqr_qr

        def corrupted(A, **kw):
            Q, R = real(A, **kw)
            if kw["policy"].path == "structured" and Q.size:
                Q = Q.copy()
                Q[-1, 0] += 1e-3
            return Q, R

        monkeypatch.setattr(fuzz, "tsqr_qr", corrupted)
        divs = run_case(FuzzCase(1100, 20, block_rows=None), paths=["batched"])
        assert {d.path for d in divs} == {"tsqr_structured"}
        assert divs[0].check == "invariants"
        assert run_case(FuzzCase(0, 5), paths=["batched"]) == []

    def test_unset_width_repro_reproduces_the_case(self):
        from repro.core.caqr import caqr_qr
        from repro.runtime import count_fallbacks

        case = FuzzCase(1100, 20, dtype="float32", kind="graded", panel_width=None,
                        block_rows=None, tree_shape="binary")
        snippet = case.repro("auto")
        assert "panel_width=None" in snippet
        ns: dict = {}
        with count_fallbacks() as fb:
            exec(snippet, ns)  # noqa: S102 - the point of the test
        assert fb.fallbacks == 1  # the one-panel fallback ran
        Q, R = caqr_qr(case.build(), policy=case.policy("auto"))
        np.testing.assert_array_equal(ns["Q"], Q)
        np.testing.assert_array_equal(ns["R"], R)

    @pytest.mark.parametrize("name", ["tsqr", "tsqr_structured", "cgs2"])
    def test_reference_snippets_are_executable(self, name):
        ns: dict = {}
        exec(FuzzCase(40, 6, block_rows=8, tree_shape="binary").repro(name), ns)  # noqa: S102
        assert ns["Q"].shape == (40, 6)

    def test_crashing_path_is_a_finding(self, monkeypatch):
        def boom(A, **kw):
            raise RuntimeError("injected")

        monkeypatch.setattr(fuzz, "caqr", boom)
        divs = run_case(FuzzCase(16, 4), paths=["batched"])
        assert len(divs) == 1 and divs[0].check == "exception"
        assert "injected" in divs[0].detail

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown path"):
            run_grid(paths=["warp-drive"])


class TestCli:
    def test_verify_exits_zero_on_clean_grid(self, capsys):
        from repro.cli import main

        assert main(["verify", "--quick", "--paths", "batched"]) == 0
        assert "0 divergence" in capsys.readouterr().out
