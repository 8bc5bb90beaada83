"""The streaming out-of-core CAQR engine vs one-shot CAQR.

The contract the soak gate pins, exercised at test scale: the streamed
R equals the one-shot R (sign-canonicalized) across chunk-size x shape
grids including chunks narrower than a panel, ragged tails and the
dense start-up folds; the implicit Q reconstructs; memory is bounded by
the chunk geometry, never the stream length.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caqr import caqr
from repro.core.validation import sign_canonical
from repro.runtime import ExecutionPolicy, plan_qr
from repro.streaming import (
    build_stream_schedule,
    run_streaming_matrix,
    stream_qr,
)


def spolicy(chunk_rows: int, **kw) -> ExecutionPolicy:
    return ExecutionPolicy(path="streaming", chunk_rows=chunk_rows, **kw)


def canon_r(R: np.ndarray) -> np.ndarray:
    _, Rc = sign_canonical(np.eye(min(R.shape)), R)
    return Rc


def assert_matches_oneshot(A: np.ndarray, chunk_rows: int, **kw):
    f = caqr(A, policy=spolicy(chunk_rows, **kw))
    ref = caqr(A, policy=ExecutionPolicy(path="batched"))
    scale = max(np.linalg.norm(A), 1.0)
    assert f.R.shape == ref.R.shape
    assert np.abs(canon_r(f.R) - canon_r(ref.R)).max() <= 1e-12 * scale
    return f


class TestStreamedEqualsOneShot:
    def test_reference_shape(self, rng):
        assert_matches_oneshot(rng.standard_normal((130, 20)), chunk_rows=32)

    def test_ragged_tail(self, rng):
        # 100 = 3*33 + 1: the last chunk is a single row.
        assert_matches_oneshot(rng.standard_normal((100, 8)), chunk_rows=33)

    def test_chunk_narrower_than_panel_width(self, rng):
        # chunk height 3 < panel_width 16: every fold is a start-up
        # dense merge until the carry reaches full height.
        assert_matches_oneshot(rng.standard_normal((40, 8)), chunk_rows=3)

    def test_chunk_of_one_row(self, rng):
        assert_matches_oneshot(rng.standard_normal((17, 5)), chunk_rows=1)

    def test_single_chunk_stream(self, rng):
        assert_matches_oneshot(rng.standard_normal((30, 6)), chunk_rows=64)

    def test_wide_matrix(self, rng):
        assert_matches_oneshot(rng.standard_normal((9, 20)), chunk_rows=4)

    def test_square_chunks(self, rng):
        assert_matches_oneshot(rng.standard_normal((64, 16)), chunk_rows=16)

    def test_float32_stream_stays_float32(self, rng):
        A = rng.standard_normal((50, 6)).astype(np.float32)
        f = caqr(A, policy=spolicy(11))
        assert f.R.dtype == np.float32
        Q = f.form_q()
        assert Q.dtype == np.float32
        assert np.abs(Q @ f.R - A).max() < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=60),
        n=st.integers(min_value=1, max_value=12),
        chunk_rows=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_chunking_grid(self, m, n, chunk_rows, seed):
        """Streamed R == one-shot R over a chunk-size x shape grid."""
        A = np.random.default_rng(seed).standard_normal((m, n))
        assert_matches_oneshot(A, chunk_rows=chunk_rows)


class TestFormQ:
    def test_reconstruction_and_orthogonality(self, rng):
        A = rng.standard_normal((90, 12))
        f = caqr(A, policy=spolicy(25))
        Q = f.form_q()
        assert Q.shape == (90, 12)
        assert np.abs(Q @ f.R - A).max() < 1e-12 * np.linalg.norm(A)
        assert np.abs(Q.T @ Q - np.eye(12)).max() < 1e-13

    def test_wide_stream_q(self, rng):
        A = rng.standard_normal((7, 15))
        f = caqr(A, policy=spolicy(3))
        Q = f.form_q()
        assert Q.shape == (7, 7)
        assert np.abs(Q @ f.R - A).max() < 1e-12 * np.linalg.norm(A)

    def test_soak_mode_refuses_form_q(self, rng):
        A = rng.standard_normal((20, 4))
        f = run_streaming_matrix(A, spolicy(6), retain_q=False)
        with pytest.raises(RuntimeError, match="retain_q"):
            f.form_q()


class TestGuards:
    def test_column_drift_rejected(self, rng):
        sq = stream_qr(iter([rng.standard_normal((8, 5))]), policy=spolicy(4))
        with pytest.raises(ValueError, match="column"):
            sq.push(rng.standard_normal((4, 6)))

    def test_dtype_mix_rejected(self, rng):
        sq = stream_qr(
            iter([rng.standard_normal((8, 5)).astype(np.float32)]),
            policy=spolicy(4),
        )
        with pytest.raises(TypeError, match="dtype"):
            sq.push(rng.standard_normal((4, 5)))  # float64 into float32

    def test_nonfinite_chunk_rejected(self, rng):
        A = rng.standard_normal((8, 3))
        A[5, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            caqr(A, policy=spolicy(4))


class TestPolicyAndPlan:
    def test_streaming_requires_chunk_rows(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            ExecutionPolicy(path="streaming")

    def test_chunk_rows_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            ExecutionPolicy(path="batched", chunk_rows=64)

    def test_plan_factor_matches_entry_point(self, rng):
        A = rng.standard_normal((70, 9))
        pol = spolicy(16)
        plan = plan_qr(70, 9, policy=pol)
        assert np.array_equal(plan.factor(A).R, caqr(A, policy=pol).R)

    def test_plan_schedule_is_the_row_deal(self):
        plan = plan_qr(100, 8, policy=spolicy(33))
        sched = build_stream_schedule(100, 8, 33)
        assert plan._schedule == sched
        assert sched.chunks == 4
        assert sched.rows[-1] == (99, 100)

    def test_plan_task_graph_matches_producer(self):
        from repro.streaming import emit_streaming_layers

        plan = plan_qr(100, 8, policy=spolicy(33))
        assert (
            plan.task_graph().fingerprint()
            == emit_streaming_layers(100, 8, 33).fingerprint()
        )

    def test_plan_simulate_raises(self):
        plan = plan_qr(100, 8, policy=spolicy(33))
        with pytest.raises(ValueError, match="out-of-core"):
            plan.simulate()

    def test_plan_describe_mentions_chunking(self):
        text = plan_qr(100, 8, policy=spolicy(33)).describe()
        assert "streaming" in text and "chunk_rows=33" in text


class TestGraphProducer:
    def test_registered_producer(self):
        from repro.graph.highlevel import PRODUCERS

        assert PRODUCERS["streaming"] == (
            "repro.streaming.graphs:emit_streaming_layers"
        )


class TestBoundedMemory:
    def test_peak_is_independent_of_stream_length(self, rng):
        def blocks(chunks):
            for i in range(chunks):
                yield np.random.default_rng(i).standard_normal((16, 6))

        pol = spolicy(16)
        short = stream_qr(blocks(4), policy=pol)
        long = stream_qr(blocks(16), policy=pol)
        assert long.rows_seen == 4 * short.rows_seen
        assert long.peak_tracked_bytes == short.peak_tracked_bytes

    def test_retain_q_grows_instead(self, rng):
        A = rng.standard_normal((64, 6))
        pol = spolicy(16)
        soak = run_streaming_matrix(A, pol, retain_q=False)
        assert soak.retained is False
        kept = stream_qr(iter([A]), policy=pol, retain_q=True)
        assert kept.resident_tracked_bytes > A[:16].nbytes

    def test_merge_kinds_partition_the_chunks(self, rng):
        """Every chunk after the first folds into the carry once, by one
        kind of merge, whether the carry is still short or full height."""
        from repro.obs import tracer as obs

        def carries(A, chunk_rows):
            with obs.capture() as session:
                sq = stream_qr(iter([A]), policy=spolicy(chunk_rows))
            folds = [s.args for s in session.trace.spans if s.name == "stream.merge"]
            assert [f["chunk"] for f in folds] == list(range(1, sq.n_chunks))
            return [f["carry"] for f in folds]

        # Full-height carry from chunk 1 on.
        assert carries(rng.standard_normal((64, 8)), 16) == [8, 8, 8]
        # 2-row chunks against n=8: the carry stays short for the first
        # folds (2, 4, 6 rows), then holds the full triangle.
        assert carries(rng.standard_normal((16, 8)), 2) == [2, 4, 6, 8, 8, 8, 8]


class TestDegenerateStreams:
    def test_empty_matrix(self):
        f = run_streaming_matrix(np.zeros((0, 5)), spolicy(4))
        assert f.R.shape == (0, 5)
        assert f.form_q().shape == (0, 0)

    def test_zero_columns(self):
        f = run_streaming_matrix(np.zeros((12, 0)), spolicy(4))
        assert f.R.shape == (0, 0)
        assert f.m == 12

    def test_empty_float32_keeps_dtype(self):
        f = run_streaming_matrix(np.zeros((0, 3), dtype=np.float32), spolicy(4))
        assert f.R.dtype == np.float32

    def test_obs_counters_count_the_stream(self, rng):
        from repro.obs import tracer as obs

        A = rng.standard_normal((40, 5))
        with obs.capture() as session:
            caqr(A, policy=spolicy(16))
        totals = session.trace.total_counters()
        assert totals["stream_rows"] == 40
        assert totals["stream_chunks"] == 3
