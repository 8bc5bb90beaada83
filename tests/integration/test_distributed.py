"""Tests of distributed-memory TSQR/CAQR: the counted communicator and
the sharded path (``ExecutionPolicy(path="sharded", shards=P)``)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caqr import caqr
from repro.core.validation import sign_canonical
from repro.distributed import (
    INTERCONNECTS,
    FakeComm,
    build_shard_schedule,
    householder_message_count,
    run_sharded,
    sharded_reference_r,
    simulated_network_seconds,
    tsqr_message_lower_bound,
)
from repro.runtime import ExecutionPolicy, plan_qr


def sharded(p: int, **kw) -> ExecutionPolicy:
    return ExecutionPolicy(path="sharded", shards=p, **kw)


class TestFakeComm:
    def test_send_recv_roundtrip(self):
        c = FakeComm(size=2)
        c.send(np.arange(5.0), src=0, dst=1)
        got = c.recv(src=0, dst=1)
        assert np.array_equal(got, np.arange(5.0))

    def test_messages_are_copies(self):
        c = FakeComm(size=2)
        x = np.ones(3)
        c.send(x, src=0, dst=1)
        x[0] = 99.0
        assert c.recv(src=0, dst=1)[0] == 1.0

    def test_counters(self):
        c = FakeComm(size=3)
        c.send(np.zeros(10), src=0, dst=2)
        c.send(np.zeros(4), src=1, dst=2)
        assert c.total_messages == 2
        assert c.total_words == 14
        assert c.stats[2].messages_received == 2
        assert c.stats[2].words_received == 14

    def test_fifo_per_channel(self):
        c = FakeComm(size=2)
        c.send(1.0, src=0, dst=1)
        c.send(2.0, src=0, dst=1)
        assert c.recv(src=0, dst=1) == 1.0
        assert c.recv(src=0, dst=1) == 2.0

    def test_missing_message_raises(self):
        c = FakeComm(size=2)
        with pytest.raises(LookupError):
            c.recv(src=0, dst=1)

    def test_invalid_ranks(self):
        c = FakeComm(size=2)
        with pytest.raises(ValueError):
            c.send(1.0, src=0, dst=2)
        with pytest.raises(ValueError):
            c.send(1.0, src=1, dst=1)
        with pytest.raises(ValueError):
            FakeComm(size=0)

    def test_alpha_beta_time(self):
        c = FakeComm(size=2)
        c.send(np.zeros(1000), src=0, dst=1)
        t = simulated_network_seconds(c, alpha_us=10.0, beta_ns_per_word=5.0)
        # busiest rank: 1 message, 1000 words.
        assert t == pytest.approx(10e-6 + 1000 * 5e-9)


class TestDistributedTSQR:
    """The classic parallel TSQR on the sharded path: a matrix no wider
    than one panel, reduced up the binomial tree (fan-in 2)."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8, 16])
    def test_correct_factorization(self, rng, p):
        A = rng.standard_normal((600, 10))
        f = caqr(A, policy=sharded(p))
        R_np = np.triu(np.linalg.qr(A, mode="r"))
        assert np.allclose(np.abs(np.diag(f.R)), np.abs(np.diag(R_np)), atol=1e-10)
        Q = f.form_q()
        assert np.allclose(Q @ f.R, A, atol=1e-10)
        assert np.allclose(Q.T @ Q, np.eye(10), atol=1e-11)

    @pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
    def test_critical_path_is_log_p(self, rng, p):
        A = rng.standard_normal((32 * 8, 4))
        f = caqr(A, policy=sharded(p))
        assert f.comm.critical_path_messages() == tsqr_message_lower_bound(p)

    def test_total_messages_p_minus_1(self, rng):
        """Every rank's R is eliminated exactly once: P - 1 messages."""
        for p in (2, 5, 8, 13):
            f = caqr(rng.standard_normal((13 * 8, 6)), policy=sharded(p))
            assert f.comm.total_messages == p - 1

    def test_message_size_is_triangle(self, rng):
        n = 8
        f = caqr(rng.standard_normal((64, n)), policy=sharded(4))
        assert f.comm.total_words == 3 * n * (n + 1) / 2

    def test_tsqr_beats_householder_in_messages(self):
        """The headline distributed claim: log P vs 2 n log P messages."""
        for p in (16, 256):
            for n in (32, 192):
                assert householder_message_count(n, p) == 2 * n * tsqr_message_lower_bound(p)
                assert tsqr_message_lower_bound(p) * 2 * n == householder_message_count(n, p)
                assert tsqr_message_lower_bound(p) < householder_message_count(n, p) / 10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="shards"):
            sharded(0)
        with pytest.raises(ValueError):
            caqr(np.zeros(5), policy=sharded(1))

    def test_zero_communication_single_rank(self, rng):
        f = caqr(rng.standard_normal((50, 5)), policy=sharded(1))
        assert f.comm is None


@settings(max_examples=20, deadline=None)
@given(p=st.integers(1, 12), n=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_property_distributed_matches_serial(p, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p * n + rng.integers(0, 20), n))
    f = caqr(A, policy=sharded(p))
    R_np = np.triu(np.linalg.qr(A, mode="r"))[:n]
    assert np.allclose(np.abs(np.diag(f.R)), np.abs(np.diag(R_np)), atol=1e-9)


class TestGuardsAndDtype:
    """Entry-point guards and dtype preservation on the sharded path."""

    def test_complex_input_rejected(self):
        with pytest.raises(TypeError, match="complex"):
            caqr(np.ones((40, 4), dtype=np.complex128), policy=sharded(2))

    def test_nonfinite_rejected_naming_the_entry_point(self, rng):
        A = rng.standard_normal((40, 4))
        A[3, 1] = np.nan
        with pytest.raises(ValueError, match="caqr.*non-finite"):
            caqr(A, policy=sharded(2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_propagate_escape_hatch(self, rng):
        A = rng.standard_normal((40, 4))
        A[3, 1] = np.inf
        f = caqr(A, policy=sharded(2, nonfinite="propagate"))
        assert not np.isfinite(f.R).all()

    def test_float32_preserved_end_to_end(self, rng):
        A = rng.standard_normal((120, 6)).astype(np.float32)
        f = caqr(A, policy=sharded(4))
        assert f.R.dtype == np.float32
        Q = f.form_q()
        assert Q.dtype == np.float32
        assert np.allclose(Q @ f.R, A, atol=1e-4)
        assert np.allclose(Q.T @ Q, np.eye(6), atol=1e-4)

    def test_sharded_guards_route_through_the_caqr_entry(self, rng):
        policy = ExecutionPolicy(path="sharded", shards=3)
        with pytest.raises(TypeError, match="complex"):
            caqr(np.ones((20, 3), dtype=np.complex128), policy=policy)
        A = rng.standard_normal((20, 3))
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            caqr(A, policy=policy)

    def test_sharded_float32_preserved(self, rng):
        A = rng.standard_normal((200, 7)).astype(np.float32)
        f = caqr(A, policy=ExecutionPolicy(path="sharded", shards=4))
        assert f.R.dtype == np.float32
        Q = f.form_q()
        assert Q.dtype == np.float32
        assert np.allclose(Q @ f.R, A, atol=1e-4)


class TestCriticalPath:
    """Per-level maxima, not busiest-rank whole-run totals."""

    def test_sequential_rounds_add(self):
        c = FakeComm(size=4)
        c.send(np.zeros(100), src=1, dst=0, tag=0)
        c.send(np.zeros(80), src=3, dst=2, tag=1)
        # Two barriers: 100 words then 80, even though no single rank
        # moved more than 100 — the old busiest-rank estimate missed
        # the second round entirely here.
        assert c.critical_path_messages() == 2
        assert c.critical_path_words() == 180.0

    def test_parallel_merges_within_a_round_do_not_add(self):
        c = FakeComm(size=4)
        c.send(np.zeros(100), src=1, dst=0, tag=0)
        c.send(np.zeros(80), src=3, dst=2, tag=0)
        assert c.critical_path_messages() == 1
        assert c.critical_path_words() == 100.0

    def test_forwarder_charged_once_per_level(self):
        # Rank 2 receives a triangle at round 0 and forwards it at
        # round 1: each round contributes its own busiest transfer,
        # never one rank's send+recv lumped into a single round.
        c = FakeComm(size=4)
        c.send(np.zeros(100), src=3, dst=2, tag=0)
        c.send(np.zeros(100), src=2, dst=0, tag=1)
        assert c.stats[2].words_sent + c.stats[2].words_received == 200.0
        assert c.critical_path_words() == 200.0
        assert c.critical_path_messages() == 2

    def test_fanin_receives_serialize_within_a_round(self):
        c = FakeComm(size=4)
        for src in (1, 2, 3):
            c.send(np.zeros(50), src=src, dst=0, tag=0)
        assert c.critical_path_messages() == 3
        assert c.critical_path_words() == 150.0

    def test_network_seconds_defaults_to_per_level_maxima(self):
        c = FakeComm(size=4)
        c.send(np.zeros(100), src=1, dst=0, tag=0)
        c.send(np.zeros(80), src=3, dst=2, tag=1)
        t = simulated_network_seconds(c, alpha_us=10.0, beta_ns_per_word=5.0)
        assert t == pytest.approx(2 * 10.0e-6 + 180 * 5.0e-9)


class TestShardSchedule:
    def test_uneven_row_deal_covers_the_matrix(self):
        s = build_shard_schedule(10, 3, 4)
        assert s.rows == ((0, 3), (3, 6), (6, 8), (8, 10))

    def test_clamps_to_the_row_count(self):
        s = build_shard_schedule(3, 5, 8)
        assert s.shards == 3
        assert all(e - b == 1 for b, e in s.rows)

    def test_round_count_is_log_fanin(self):
        assert build_shard_schedule(64, 4, 8).levels == 3
        assert build_shard_schedule(64, 4, 8, fanin=4).levels == 2
        assert build_shard_schedule(64, 4, 8, fanin=8).levels == 1

    def test_fingerprint_tracks_the_tree(self):
        base = build_shard_schedule(64, 4, 8)
        assert base.fingerprint() == build_shard_schedule(64, 4, 8).fingerprint()
        assert base.fingerprint() != build_shard_schedule(64, 4, 4).fingerprint()
        assert (
            base.fingerprint()
            != build_shard_schedule(64, 4, 8, fanin=4).fingerprint()
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_shard_schedule(10, 2, 0)
        with pytest.raises(ValueError):
            build_shard_schedule(10, 2, 2, fanin=1)

    def test_describe_names_every_round(self):
        text = build_shard_schedule(16, 2, 4).describe()
        assert "round 0" in text and "round 1" in text


class TestShardedCAQR:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    def test_matches_numpy(self, rng, shards):
        A = rng.standard_normal((150, 12))
        f = caqr(A, policy=ExecutionPolicy(path="sharded", shards=shards))
        _, Rc = sign_canonical(np.eye(12), f.R)
        _, Rn = sign_canonical(np.eye(12), np.triu(np.linalg.qr(A, mode="r")))
        assert np.allclose(Rc, Rn, atol=1e-10)
        Q = f.form_q()
        assert np.allclose(Q @ f.R, A, atol=1e-10)
        assert np.allclose(Q.T @ Q, np.eye(12), atol=1e-10)

    def test_bit_identical_to_the_in_process_reference(self, rng):
        A = rng.standard_normal((300, 16))
        policy = ExecutionPolicy(path="sharded", shards=5, fanin=3)
        f = caqr(A, policy=policy)
        assert np.array_equal(f.R, sharded_reference_r(A, policy))

    def test_plan_replays_the_prebuilt_schedule(self, rng):
        A = rng.standard_normal((128, 8))
        policy = ExecutionPolicy(path="sharded", shards=4)
        plan = plan_qr(128, 8, policy=policy)
        f_plan = plan.factor(A)
        f_direct = caqr(A, policy=policy)
        assert np.array_equal(f_plan.R, f_direct.R)
        assert plan._schedule.fingerprint() == f_direct.schedule.fingerprint()

    def test_message_counts_match_the_tree(self, rng):
        # Binomial tree over P ranks: P - 1 packed-triangle messages over
        # ceil(log2 P) sequential rounds, one message per round on the
        # critical path; every shard is at least n rows tall, so each
        # message is the full n(n+1)/2 triangle.
        n = 6
        A = rng.standard_normal((96, n))
        tri_words = n * (n + 1) // 2
        for p in (2, 3, 4, 5, 8, 13, 16):
            f = caqr(A, policy=sharded(p))
            rounds = math.ceil(math.log2(p))
            assert min(e - s for s, e in f.schedule.rows) >= n, p
            assert f.comm.critical_path_messages() == rounds, p
            assert f.comm.total_messages == p - 1, p
            assert f.comm.total_words == (p - 1) * tri_words, p
            assert f.comm.critical_path_words() == rounds * tri_words, p

    def test_network_seconds_charges_the_interconnect(self, rng):
        A = rng.standard_normal((96, 6))
        f = caqr(A, policy=ExecutionPolicy(path="sharded", shards=4))
        ic = INTERCONNECTS["ethernet"]
        want = ic.seconds(
            f.comm.critical_path_messages(), f.comm.critical_path_words()
        )
        assert f.network_seconds(ic) == pytest.approx(want)

    def test_single_shard_needs_no_communicator(self, rng):
        A = rng.standard_normal((40, 5))
        f = caqr(A, policy=ExecutionPolicy(path="sharded", shards=1))
        assert f.comm is None
        assert f.network_seconds(INTERCONNECTS["pcie2"]) == 0.0
        assert np.allclose(f.form_q() @ f.R, A, atol=1e-10)

    def test_wide_matrix(self, rng):
        A = rng.standard_normal((6, 10))
        f = caqr(A, policy=ExecutionPolicy(path="sharded", shards=4))
        Q = f.form_q()
        assert Q.shape == (6, 6) and f.R.shape == (6, 10)
        assert np.allclose(Q @ f.R, A, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    shards=st.integers(1, 9),
    fanin=st.integers(2, 4),
    m=st.integers(1, 60),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31),
)
def test_property_sharded_matches_numpy(shards, fanin, m, n, seed):
    """Shard counts x uneven row deals: bit-identity to the reference,
    tolerance agreement with LAPACK, and an orthonormal reconstruction."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    policy = ExecutionPolicy(path="sharded", shards=shards, fanin=fanin)
    f = run_sharded(A, policy)
    assert np.array_equal(f.R, sharded_reference_r(A, policy))
    k = min(m, n)
    R_np = np.triu(np.linalg.qr(A, mode="r"))[:k]
    assert np.allclose(np.abs(np.diag(f.R)), np.abs(np.diag(R_np)), atol=1e-9)
    Q = f.form_q()
    assert np.allclose(Q @ f.R, A, atol=1e-9)
    assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-9)
