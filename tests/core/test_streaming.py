"""Streaming (single-pass) TSQR: row blocks of any height pushed into
:class:`repro.streaming.StreamingQR`, and the streamed Q.

Blocks whose height is not the policy's ``chunk_rows`` are factored with
a schedule built for their height, so most pushes here exercise that
branch; ``tests/streaming/test_streaming_qr.py`` covers the re-blocked
``stream_qr`` / ``path="streaming"`` surface.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caqr import caqr
from repro.core.triangular import solve_upper
from repro.core.validation import sign_canonical
from repro.runtime import ExecutionPolicy
from repro.streaming import StreamingQR


def spolicy(chunk_rows: int = 64) -> ExecutionPolicy:
    return ExecutionPolicy(path="streaming", chunk_rows=chunk_rows)


def push_all(sq: StreamingQR, A: np.ndarray, sizes: list[int]) -> StreamingQR:
    pos = 0
    for h in sizes:
        sq.push(A[pos : pos + h])
        pos += h
    assert pos == A.shape[0]
    return sq


def canon_r(R: np.ndarray) -> np.ndarray:
    _, Rc = sign_canonical(np.eye(min(R.shape)), R)
    return Rc


def assert_r_of(R: np.ndarray, A: np.ndarray) -> None:
    """``R`` is ``np.linalg.qr``'s R of ``A`` up to row signs."""
    R_np = np.linalg.qr(A, mode="r")
    assert R.shape == R_np.shape
    scale = max(np.linalg.norm(A), 1.0)
    assert np.abs(canon_r(R) - canon_r(R_np)).max() <= 1e-12 * scale


class TestStreamingR:
    def test_matches_batch_qr(self, rng):
        A = rng.standard_normal((500, 12))
        sq = push_all(StreamingQR(n_cols=12, policy=spolicy()), A, [100, 150, 150, 100])
        assert_r_of(sq.R, A)

    def test_incremental_prefix_property(self, rng):
        """After every push, R is the R of every row seen so far — the
        promise that ``sq.R`` can be read between pushes — with a short
        carry and with a full one."""
        # Start-up folds: 3-row blocks against n = 8 keep the carry short
        # for two folds; from the third on it is a full triangle.
        A = rng.standard_normal((30, 8))
        sq = StreamingQR(n_cols=8, policy=spolicy())
        for i in range(0, 30, 3):
            sq.push(A[i : i + 3])
            assert_r_of(sq.R, A[: i + 3])
        assert sq.n_chunks == 10
        # Steady-state folds: every block is taller than n (and
        # chunk_rows tall, so the cached chunk plan factors it).
        A = rng.standard_normal((120, 6))
        sq = StreamingQR(n_cols=6, policy=spolicy(30))
        for i in range(0, 120, 30):
            sq.push(A[i : i + 30])
            assert_r_of(sq.R, A[: i + 30])
        assert sq.n_chunks == 4

    def test_single_row_blocks(self, rng):
        A = rng.standard_normal((25, 4))
        sq = push_all(StreamingQR(n_cols=4, policy=spolicy()), A, [1] * 25)
        assert_r_of(sq.R, A)

    def test_blocks_shorter_than_n(self, rng):
        A = rng.standard_normal((40, 8))
        sq = push_all(StreamingQR(n_cols=8, policy=spolicy()), A, [3, 5, 2, 10, 20])
        assert_r_of(sq.R, A)

    def test_short_total_stream(self, rng):
        A = rng.standard_normal((5, 8))  # fewer rows than columns
        sq = push_all(StreamingQR(n_cols=8, policy=spolicy()), A, [2, 3])
        assert sq.R.shape == (5, 8)
        assert_r_of(sq.R, A)

    def test_r_before_push_is_empty(self):
        R = StreamingQR(n_cols=4, policy=spolicy()).R
        assert R.shape == (0, 4)

    def test_bad_block_rejected(self, rng):
        sq = StreamingQR(n_cols=4, policy=spolicy())
        with pytest.raises(ValueError, match="column"):
            sq.push(rng.standard_normal((3, 5)))
        assert sq.rows_seen == 0

    def test_bookkeeping(self, rng):
        sq = push_all(StreamingQR(n_cols=3, policy=spolicy()), rng.standard_normal((30, 3)), [10, 20])
        assert sq.rows_seen == 30
        assert sq.n_chunks == 2


class TestStreamingApply:
    """The streamed Q (``form_q`` of the retained chunk factors)."""

    def test_qt_applied_to_stream_gives_r(self, rng):
        A = rng.standard_normal((200, 10))
        f = caqr(A, policy=spolicy(50))
        Q = f.form_q()
        assert np.allclose(Q.T @ A, f.R, atol=1e-11)

    def test_norm_preserved(self, rng):
        A = rng.standard_normal((90, 5))
        Q = caqr(A, policy=spolicy(30)).form_q()
        b = A @ rng.standard_normal(5)  # in the range of Q
        assert np.linalg.norm(Q.T @ b) == pytest.approx(np.linalg.norm(b))

    def test_least_squares_through_stream(self, rng):
        A = rng.standard_normal((300, 7))
        x_true = rng.standard_normal(7)
        b = A @ x_true
        f = caqr(A, policy=spolicy(100))
        x = solve_upper(f.R[:7, :7], f.form_q().T @ b)
        assert np.allclose(x, x_true, atol=1e-9)

    def test_short_first_blocks_apply(self, rng):
        A = rng.standard_normal((40, 8))
        sq = StreamingQR(n_cols=8, policy=spolicy(), retain_q=True)
        f = push_all(sq, A, [3, 3, 3, 31]).factors()
        Q = f.form_q()
        assert np.allclose(Q.T @ A, f.R, atol=1e-10)
        assert np.allclose(Q.T @ Q, np.eye(8), atol=1e-12)
        sq.push(rng.standard_normal((5, 8)))  # f is a snapshot: later pushes do not reach it
        assert np.array_equal(f.form_q(), Q)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31),
    splits=st.lists(st.integers(1, 20), min_size=1, max_size=8),
)
def test_property_streaming_matches_batch(n, seed, splits):
    A = np.random.default_rng(seed).standard_normal((sum(splits), n))
    sq = push_all(StreamingQR(n_cols=n, policy=spolicy()), A, splits)
    assert_r_of(sq.R, A)


class TestStreamingDtype:
    def test_dtype_fixed_across_uniform_pushes(self, rng):
        sq = StreamingQR(n_cols=4, policy=spolicy(), retain_q=True)
        sq.push(rng.standard_normal((6, 4)).astype(np.float32))
        sq.push(rng.standard_normal((6, 4)).astype(np.float32))
        assert sq.R.dtype == np.float32
        assert all(f.R.dtype == np.float32 for _, f in sq.factors().blocks)

    def test_promotion_mid_stream(self, rng):
        """A float64 block after float32 pushes is refused, not promoted:
        the stream keeps its float32 state unchanged."""
        A = rng.standard_normal((18, 4))
        sq = StreamingQR(n_cols=4, policy=spolicy())
        sq.push(A[:6].astype(np.float32))
        R = sq.R.copy()
        with pytest.raises(TypeError, match="dtype"):
            sq.push(A[6:12])
        assert sq.rows_seen == 6
        assert sq.R.dtype == np.float32
        assert np.array_equal(sq.R, R)
