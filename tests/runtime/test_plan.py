"""QRPlan: bit-identity with the one-shot entry points, reuse, guards.

The plan's whole contract is "same numbers, less work": ``execute`` must
be *bit-identical* to a direct ``caqr_qr(A, policy=...)`` on every
execution path, and one plan replayed over many same-shape matrices must
equal building a fresh plan per matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr, caqr_qr
from repro.runtime import ExecutionPolicy, QRPlan, plan_qr
from repro.verify.fuzz import PATHS, policy_for

GEOM = {"panel_width": 4, "block_rows": 8}


@pytest.fixture(params=list(PATHS))
def path_policy(request):
    return policy_for(request.param, **GEOM)


class TestBitIdentity:
    @pytest.mark.parametrize("shape", [(64, 12), (37, 5), (8, 8)])
    def test_execute_matches_direct_call(self, rng, path_policy, shape):
        A = rng.standard_normal(shape)
        plan = plan_qr(*shape, dtype=A.dtype, policy=path_policy)
        Qp, Rp = plan.execute(A)
        Qd, Rd = caqr_qr(A, policy=path_policy)
        np.testing.assert_array_equal(Qp, Qd)
        np.testing.assert_array_equal(Rp, Rd)

    def test_float32_matches(self, rng, path_policy):
        A = rng.standard_normal((48, 10)).astype(np.float32)
        plan = plan_qr(48, 10, dtype=np.float32, policy=path_policy)
        Qp, Rp = plan.execute(A)
        Qd, Rd = caqr_qr(A, policy=path_policy)
        assert Qp.dtype == np.float32
        np.testing.assert_array_equal(Qp, Qd)
        np.testing.assert_array_equal(Rp, Rd)

    def test_repeated_execute_is_deterministic(self, rng, path_policy):
        A = rng.standard_normal((64, 12))
        plan = plan_qr(64, 12, policy=path_policy)
        Q1, R1 = plan.execute(A)
        Q2, R2 = plan.execute(A)
        np.testing.assert_array_equal(Q1, Q2)
        np.testing.assert_array_equal(R1, R2)


class TestReuse:
    def test_one_plan_two_matrices_equals_two_fresh_plans(self, rng, path_policy):
        A = rng.standard_normal((64, 12))
        B = rng.standard_normal((64, 12))
        shared = plan_qr(64, 12, policy=path_policy)
        outs_shared = [shared.execute(A), shared.execute(B)]
        outs_fresh = [
            plan_qr(64, 12, policy=path_policy).execute(M) for M in (A, B)
        ]
        for (Qs, Rs), (Qf, Rf) in zip(outs_shared, outs_fresh):
            np.testing.assert_array_equal(Qs, Qf)
            np.testing.assert_array_equal(Rs, Rf)

    def test_execute_does_not_mutate_input(self, rng, path_policy):
        A = rng.standard_normal((40, 8))
        before = A.copy()
        plan_qr(40, 8, policy=path_policy).execute(A)
        np.testing.assert_array_equal(A, before)


class TestGuards:
    def test_shape_mismatch_rejected(self, rng):
        plan = plan_qr(32, 8)
        with pytest.raises(ValueError, match="does not match the planned shape"):
            plan.execute(rng.standard_normal((32, 9)))

    def test_dtype_mismatch_rejected(self, rng):
        plan = plan_qr(32, 8, dtype=np.float32)
        with pytest.raises(ValueError, match="does not match the planned dtype"):
            plan.execute(rng.standard_normal((32, 8)))  # float64

    def test_int_input_planned_as_float64(self):
        plan = plan_qr(4, 2, dtype=np.int64)
        Q, R = plan.execute(np.arange(8).reshape(4, 2))
        assert Q.dtype == np.float64
        np.testing.assert_allclose(Q @ R, np.arange(8).reshape(4, 2), atol=1e-12)

    def test_complex_rejected_at_plan_time(self):
        with pytest.raises(TypeError, match="complex"):
            plan_qr(8, 4, dtype=np.complex128)

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            plan_qr(-1, 4)

    def test_nonfinite_guard_active_by_default(self):
        plan = plan_qr(8, 4)
        bad = np.zeros((8, 4))
        bad[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            plan.execute(bad)


class TestPlanMetadata:
    def test_panel_schedule_covers_all_columns(self):
        plan = plan_qr(200, 37, policy=ExecutionPolicy(panel_width=16))
        assert plan.panels[0].col_start == 0
        assert plan.panels[-1].col_stop == 37
        widths = [p.width for p in plan.panels]
        assert sum(widths) == 37 and all(w <= 16 for w in widths)

    def test_degenerate_shapes_plan_and_execute(self):
        for m, n in [(0, 5), (5, 0), (0, 0)]:
            plan = plan_qr(m, n)
            assert isinstance(plan, QRPlan)
            Q, R = plan.execute(np.zeros((m, n)))
            k = min(m, n)
            assert Q.shape == (m, k) and R.shape == (k, n)

    def test_simulate_cached_and_guarded(self):
        plan = plan_qr(4096, 64)
        sim1 = plan.simulate()
        assert plan.simulate() is sim1
        assert sim1.seconds > 0
        with pytest.raises(ValueError, match="degenerate"):
            plan_qr(0, 5).simulate()

    def test_describe_mentions_path_and_shape(self):
        policy = ExecutionPolicy(path="lookahead")
        text = plan_qr(4096, 64, policy=policy).describe()
        assert "4096 x 64" in text
        assert "lookahead" in text

    def test_wy_scratch_positive_for_nonempty(self):
        assert plan_qr(256, 32).wy_scratch_bytes > 0
        assert plan_qr(0, 0).wy_scratch_bytes == 0


def _graded(m: int, n: int) -> np.ndarray:
    """A cond ~1e12 input the auto guard rejects (column grading mixed
    by a random orthogonal V, so equilibration cannot undo it)."""
    rng = np.random.default_rng(37)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (rng.standard_normal((m, n)) * np.logspace(0, -12, n)) @ V


class TestDefaultGeometry:
    """Unset block_rows: 32-panel-width level-0 blocks on every engine."""

    SHAPE = (4100, 40)  # geqrt blocks, ragged tails, a narrow last panel

    def test_execute_matches_direct_call(self, rng):
        A = rng.standard_normal(self.SHAPE)
        for path in ("lookahead", "batched"):
            policy = ExecutionPolicy(path=path)
            Qp, Rp = plan_qr(*self.SHAPE, policy=policy).execute(A)
            Qd, Rd = caqr_qr(A, policy=policy)
            np.testing.assert_array_equal(Qp, Qd)
            np.testing.assert_array_equal(Rp, Rd)

    def test_auto_fallback_matches_lookahead(self):
        from repro.runtime import count_fallbacks

        A = _graded(*self.SHAPE)
        with count_fallbacks() as fb:
            Qa, Ra = plan_qr(*self.SHAPE, policy=ExecutionPolicy(path="auto")).execute(A)
        assert fb.fallbacks == 1
        Ql, Rl = caqr_qr(A, policy=ExecutionPolicy(path="lookahead"))
        np.testing.assert_array_equal(Qa, Ql)
        np.testing.assert_array_equal(Ra, Rl)

    def test_auto_fallback_schedule_at_paper_shape(self):
        # 16-wide panels (unset, the fallback is one panel: TestOnePanelDefault).
        plan = plan_qr(110592, 100, policy=ExecutionPolicy(path="auto", panel_width=16))
        assert [bh for _, _, _, bh, _ in plan._schedule.panels] == [512] * 6 + [128]
        assert "512 x6, 128 x1 (tree fallback)" in plan.describe()
        pinned = plan_qr(
            110592, 100, policy=ExecutionPolicy(path="auto", panel_width=16, block_rows=64)
        )
        assert [bh for _, _, _, bh, _ in pinned._schedule.panels] == [64] * 7
        assert "64 x7" in pinned.describe()

    def test_auto_plan_warms_fallback_recipes(self, monkeypatch):
        """plan_qr(path="auto") captures each fallback panel's TSQR
        schedule once, and the guarded fallback never captures again;
        nor does a built look-ahead plan's factor, at any worker count."""
        import repro.graph.executor as executor
        from repro.core.tsqr import panel_schedule
        from repro.runtime import count_fallbacks

        def captures():
            info = panel_schedule.cache_info()
            return info.misses, info.hits + info.misses

        panel_schedule.cache_clear()
        plan = plan_qr(*self.SHAPE, policy=ExecutionPolicy(path="auto", panel_width=16))
        assert captures()[0] == 3  # one capture per fallback panel
        before = captures()
        with count_fallbacks() as fb:
            plan.execute(_graded(*self.SHAPE))
        assert fb.fallbacks == 1
        assert captures() == before  # the execute never looks a schedule up
        # Unset, the fallback is one panel: one capture.
        panel_schedule.cache_clear()
        plan = plan_qr(*self.SHAPE, policy=ExecutionPolicy(path="auto"))
        assert captures()[0] == 1
        (sched,) = plan._schedule.panel_schedules
        assert (sched.height, sched.width, sched.block_rows) == (*self.SHAPE, 1280)
        before = captures()
        with count_fallbacks() as fb:
            plan.execute(_graded(*self.SHAPE))
        assert fb.fallbacks == 1 and captures() == before
        # batched and lookahead: factor replays the plan's schedule, never
        # builds one.
        builds = []
        real = executor.build_lookahead_schedule
        monkeypatch.setattr(
            executor, "build_lookahead_schedule", lambda *a: builds.append(a) or real(*a)
        )
        A = np.random.default_rng(3).standard_normal(self.SHAPE)
        for kw in ({"path": "batched"}, {"path": "lookahead"}):
            for width in (None, 16):
                plan = plan_qr(*self.SHAPE, policy=ExecutionPolicy(panel_width=width, **kw))
                builds.clear()
                misses = panel_schedule.cache_info().misses
                plan.factor(A)
                assert builds == [], kw
                assert panel_schedule.cache_info().misses == misses, kw


class TestOnePanelDefault:
    """Unset panel_width: one full-width look-ahead panel when m >= n.

    One panel has no trailing update, so the look-ahead plan is TSQR of
    the whole matrix: its Q and R equal ``tsqr_qr``'s bit for bit, and
    so do ``auto``'s fallbacks.  Wide matrices and every other engine
    keep the paper's 16; an explicit width is used as given.
    """

    # A ragged tail, a tail thinner than the panel (the generic TSQR
    # path), one block, m = n and n = 1, over every tree shape.
    CASES = [
        ((4100, 40), "quad"),  # three 1280-row blocks + a 260-row tail
        ((6000, 20), "binary"),  # nine 640-row blocks + a 240-row tail
        ((4100, 40), "binomial"),
        ((2580, 40), "flat"),  # a 20-row tail, thinner than the panel
        ((63, 17), "quad"),  # one block
        ((300, 300), "binary"),  # m = n
        ((2000, 1), "quad"),  # n = 1
    ]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape,tree", CASES)
    def test_default_lookahead_is_tsqr_bit_for_bit(self, shape, tree, dtype):
        from repro.core.tsqr import tsqr_qr

        A = np.random.default_rng(43).standard_normal(shape).astype(dtype)
        plan = plan_qr(*shape, dtype, ExecutionPolicy(path="lookahead", tree_shape=tree))
        assert [(p.width, p.trailing_cols) for p in plan.panels] == [(shape[1], 0)]
        Q, R = plan.execute(A)
        Qt, Rt = tsqr_qr(A, policy=ExecutionPolicy(tree_shape=tree))
        assert Q.dtype == R.dtype == dtype
        np.testing.assert_array_equal(Q, Qt)
        np.testing.assert_array_equal(R, Rt)

    def test_auto_fallback_is_tsqr(self):
        from repro.core.tsqr import tsqr_qr
        from repro.runtime import count_fallbacks

        # 100 columns: wide enough that forming Q as apply_q(I) would
        # differ from TSQR's orgqr form in the last bits.
        A = _graded(5000, 100)
        before = A.copy()
        plan = plan_qr(*A.shape, policy=ExecutionPolicy(path="auto"))
        with count_fallbacks() as fb:
            Qa, Ra = plan.execute(A)
        assert fb.fallbacks == 1
        Qt, Rt = tsqr_qr(A)
        np.testing.assert_array_equal(Qa, Qt)
        np.testing.assert_array_equal(Ra, Rt)
        np.testing.assert_array_equal(A, before)

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_one_panel_reads_a_in_place(self, order):
        """No trailing update: no working copy, and A is left unchanged."""
        from repro import obs

        A = np.random.default_rng(47).standard_normal((4100, 40))
        if order == "F":
            A = np.asfortranarray(A)
        elif order == "strided":
            A = np.repeat(A, 2, axis=1)[:, ::2]
        before = A.copy()
        one = plan_qr(*A.shape, policy=ExecutionPolicy(path="lookahead"))
        multi = plan_qr(*A.shape, policy=ExecutionPolicy(path="lookahead", panel_width=16))
        with obs.capture() as session:
            f = one.factor(A)
        assert not [s for s in session.trace.spans if s.name == "setup"]
        np.testing.assert_array_equal(A, before)
        Qc, Rc = one.execute(np.ascontiguousarray(A))
        np.testing.assert_array_equal(f.form_q(), Qc)
        np.testing.assert_array_equal(f.R, Rc)
        with obs.capture() as session:
            multi.factor(A)
        assert len([s for s in session.trace.spans if s.name == "setup"]) == 1
        np.testing.assert_array_equal(A, before)

    def test_one_panel_form_q_is_tsqrs(self, monkeypatch):
        """One panel forms Q as TSQR does (to roundoff of ``apply_q(I)``);
        more panels keep the column-skipping ``apply_q``."""
        import importlib

        tsqr_mod = importlib.import_module("repro.core.tsqr")
        calls = []
        real = tsqr_mod._plan_form_q
        monkeypatch.setattr(
            tsqr_mod, "_plan_form_q", lambda *a: calls.append(a[1:3]) or real(*a)
        )
        A = np.random.default_rng(53).standard_normal((20000, 64))
        f = plan_qr(*A.shape, policy=ExecutionPolicy(path="lookahead")).factor(A)
        assert len(f.panels) == 1 and f.panel_width == 64
        Q = f.form_q()
        assert calls == [(20000, 64)]
        assert np.abs(Q - f.apply_q(np.eye(*Q.shape))).max() < 1e-15
        pinned = ExecutionPolicy(path="lookahead", panel_width=16)
        plan_qr(*A.shape, policy=pinned).factor(A).form_q()
        assert calls == [(20000, 64)]

    def test_wide_and_other_engines_keep_sixteen(self):
        from repro.graph.executor import build_lookahead_schedule

        def widths(m, n, **kw):
            return [p.width for p in plan_qr(m, n, policy=ExecutionPolicy(**kw)).panels]

        # Wide: the unset width is the paper's 16, schedule for schedule,
        # on the look-ahead engine (batched and structured are that engine).
        for path in ("lookahead", "auto", "batched", "structured"):
            assert widths(300, 2000, path=path) == [16] * 18 + [12]
        # Tall: one panel on the look-ahead engine, structured included.
        assert widths(1000, 40, path="batched") == [40]
        assert widths(1000, 40, path="structured") == [40]
        unset = build_lookahead_schedule(300, 2000, ExecutionPolicy(path="lookahead"))
        pinned = build_lookahead_schedule(
            300, 2000, ExecutionPolicy(path="lookahead", panel_width=16)
        )
        assert (unset.panels, unset.tasks) == (pinned.panels, pinned.tasks)
        # Every other engine keeps 16 on tall matrices too.
        for kw in ({"path": "sharded", "shards": 2}, {"path": "streaming", "chunk_rows": 512}):
            assert "panel_width=16 " in plan_qr(1000, 40, policy=ExecutionPolicy(**kw)).describe()
            if kw["path"] != "sharded":  # a sharded plan's panels are per rank
                assert widths(1000, 40, **kw)[:2] == [16, 16], kw
        assert widths(1000, 40, path="cholqr2") == []

    @pytest.mark.parametrize("width", [1, 8, 16, 32, 40, 64])
    def test_explicit_width_used_as_given(self, width):
        from repro.core.tsqr import level0_rows
        from repro.graph.executor import build_lookahead_schedule

        m, n = 1000, 40
        for path in ("lookahead", "auto", "batched"):
            plan = plan_qr(m, n, policy=ExecutionPolicy(path=path, panel_width=width))
            starts = list(range(0, n, width))
            assert [p.col_start for p in plan.panels] == starts
            assert [p.width for p in plan.panels] == [min(width, n - c) for c in starts]
        sched = build_lookahead_schedule(
            m, n, ExecutionPolicy(path="lookahead", panel_width=width)
        )
        assert sched.panels == tuple(
            (c, min(width, n - c), c, level0_rows(None, min(width, n - c)),
             n - c - min(width, n - c))
            for c in range(0, n, width)
        )
        f = caqr(np.random.default_rng(59).standard_normal((m, n)),
                 policy=ExecutionPolicy(path="lookahead", panel_width=width))
        assert f.panel_width == width

    def test_auto_scratch_counts_its_fallback(self):
        """An ``auto`` plan reports the larger of its Gram smalls and its
        fallback's compact-WY factors, the scratch a fallback allocates."""
        m, n = 110592, 100
        auto = plan_qr(m, n, policy=ExecutionPolicy(path="auto"))
        tree = plan_qr(m, n, policy=ExecutionPolicy(path="lookahead"))
        assert auto.wy_scratch_bytes == tree.wy_scratch_bytes == 97_040_000
        assert auto.panels == tree.panels and len(auto.panels) == 1
        text = auto.describe()
        assert "panel_width=100" in text and "panels       1" in text
        assert "wy scratch   97.04 MB" in text and "3200 x1 (tree fallback)" in text
        sixteen = plan_qr(m, n, policy=ExecutionPolicy(path="auto", panel_width=16))
        assert sixteen.wy_scratch_bytes == 95_858_816
        # No fallback, no tree: the Gram and triangular smalls only.
        strict = plan_qr(m, n, policy=ExecutionPolicy(path="cholqr2"))
        assert strict.wy_scratch_bytes == 3 * n * n * 8 and strict.panels == ()


class TestDirectIsAPlan:
    """``caqr`` validates, then factors a one-shot plan: same code path."""

    def test_caqr_factors_a_validated_plan(self, rng, monkeypatch):
        seen = []
        real = QRPlan.factor

        def spy(self, A, validated=False):
            seen.append((self.policy, validated))
            return real(self, A, validated=validated)

        monkeypatch.setattr(QRPlan, "factor", spy)
        policy = ExecutionPolicy(path="lookahead")
        caqr(rng.standard_normal((64, 12)), policy=policy)
        assert seen == [(policy, True)]

    def test_direct_call_skips_plan_metadata(self, rng, monkeypatch):
        import repro.runtime.plan as plan_mod

        calls = []
        for name in ("_panel_specs", "_wy_scratch_bytes"):
            real = getattr(plan_mod, name)
            monkeypatch.setattr(
                plan_mod, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a)
            )
        policy = ExecutionPolicy(path="lookahead", block_rows=64)
        caqr(rng.standard_normal((1100, 40)), policy=policy)
        plan = plan_qr(1100, 40, policy=policy)
        assert calls == []
        # Computed on first read, once.
        assert plan.panels and plan.wy_scratch_bytes > 0
        assert plan.panels is plan.panels
        assert sorted(set(calls)) == ["_panel_specs", "_wy_scratch_bytes"]
        assert calls.count("_panel_specs") == 1


class TestExecuteOut:
    """``execute(A, out=buf)`` forms Q in ``buf`` on every path."""

    @pytest.mark.parametrize("geom", [{}, GEOM], ids=["default", "narrow"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(300, 20), (20, 45)], ids=["tall", "wide"])
    @pytest.mark.parametrize("name", list(PATHS))
    def test_out_is_q_bit_for_bit(self, rng, name, shape, dtype, geom):
        policy = policy_for(
            name, panel_width=geom.get("panel_width"), block_rows=geom.get("block_rows")
        )
        A = rng.standard_normal(shape).astype(dtype)
        plan = plan_qr(*shape, dtype=dtype, policy=policy)
        Q, R = plan.execute(A)
        buf = np.full((shape[0], min(shape)), np.nan, dtype=dtype)
        Qo, Ro = plan.execute(A, out=buf)
        assert Qo is buf
        np.testing.assert_array_equal(Qo, Q)
        np.testing.assert_array_equal(Ro, R)

    def test_auto_fallback_forms_q_in_out(self):
        from repro.runtime import count_fallbacks

        A = _graded(4096, 32)
        plan = plan_qr(*A.shape, policy=ExecutionPolicy(path="auto"))
        buf = np.full(A.shape, np.nan)
        with count_fallbacks() as fb:
            Q, R = plan.execute(A)
            Qo, Ro = plan.execute(A, out=buf)
        assert fb.fallbacks == 2 and Qo is buf
        np.testing.assert_array_equal(Qo, Q)
        np.testing.assert_array_equal(Ro, R)

    @pytest.mark.parametrize("name", list(PATHS))
    def test_bad_out_rejected(self, rng, name):
        A = rng.standard_normal((64, 12))
        plan = plan_qr(64, 12, policy=policy_for(name, panel_width=None, block_rows=None))
        frozen = np.empty((64, 12))
        frozen.flags.writeable = False
        bad = {
            "has shape": np.empty((64, 11)),
            "has dtype": np.empty((64, 12), dtype=np.float32),
            "C-contiguous": np.empty((64, 12), order="F"),
            "read-only": frozen,
        }
        for match, buf in bad.items():
            with pytest.raises(ValueError, match=match):
                plan.execute(A, out=buf)
        strided = np.empty((64, 24))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            plan.execute(A, out=strided)
        # Q written over A (or over part of it) would corrupt the factor.
        storage = rng.standard_normal(3 * 64 * 12)
        A = storage[: 64 * 12].reshape(64, 12)
        before = A.copy()
        for buf in (A, storage[64 * 6 : 64 * 18].reshape(64, 12)):
            with pytest.raises(ValueError, match="overlaps A"):
                plan.execute(A, out=buf)
        np.testing.assert_array_equal(A, before)


class TestExecuteOutAllocates:
    """With ``out``, no path here allocates an m x n array: one look-ahead
    panel factors its level-0 reflectors in ``out`` and forms Q over
    them, and CholeskyQR2 runs its working matrix there.  With 16-wide
    panels the look-ahead engine keeps its working copy of A in ``out``,
    so only the panels' reflector stacks (one m x n array between them)
    are allocated.  Traced NumPy peaks at TestReflectorStorage's shape
    and allowance (8 x blocks x n x n elements for the per-block R and T
    factors, the tree's stacked Rs and Q's top rows)."""

    M, N = 65536, 64

    @pytest.fixture(scope="class")
    def inputs(self):
        from repro.core.tsqr import level0_rows

        rng = np.random.default_rng(5)
        A = rng.standard_normal((self.M, self.N))
        blocks = -(-self.M // level0_rows(None, self.N))
        small = 8 * blocks * self.N * self.N * A.itemsize
        return {"gaussian": A, "graded": _graded(self.M, self.N)}, A.nbytes, small

    @pytest.mark.parametrize(
        "path,kind,tree,width",
        [
            ("batched", "gaussian", True, None),
            ("lookahead", "gaussian", True, None),
            ("auto", "gaussian", False, None),  # CholeskyQR2 admits it
            ("auto", "graded", True, None),  # the guard refuses it: tree fallback
            ("batched", "gaussian", True, 16),  # four panels, trailing updates
        ],
        ids=["batched", "lookahead", "auto-cholqr2", "auto-fallback", "batched-w16"],
    )
    def test_traced_peak(self, inputs, path, kind, tree, width):
        import tracemalloc

        from repro.runtime import count_fallbacks

        mats, mn, small = inputs
        A = mats[kind]
        policy = ExecutionPolicy(path=path, panel_width=width)
        plan = plan_qr(self.M, self.N, np.float64, policy)
        buf = np.empty_like(A)
        plan.execute(A, out=buf)  # warm the kernels' scratch
        with count_fallbacks() as fb:
            tracemalloc.start()
            try:
                Q, R = plan.execute(A, validated=True, out=buf)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert Q is buf and fb.fallbacks == (path == "auto" and tree)
        assert len(plan.panels) == (1 if width is None else self.N // width)
        bound = mn + small if width is not None else small
        assert peak < bound, f"execute peak {peak / mn:.2f} x A.nbytes"
