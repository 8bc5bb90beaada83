"""The coalescer's one non-negotiable contract: bit-identical results.

Every test here compares results that came back through the server —
forced onto a known rung via the gated worker — against the uncoalesced
reference (``QRDispatcher.qr`` or ``plan_qr(...).factor``) with
``np.array_equal``, i.e. bit-for-bit, not ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dispatch import QRDispatcher
from repro.runtime import ExecutionPolicy, plan_qr
from repro.serving import QRServer
from repro.smallblas.wy import GEQRT_MIN_ELEMS, geqr2_blocked

from .conftest import M, N


def _mats(count, dtype=np.float64, m=M, n=N, seed=7):
    rng = np.random.default_rng(seed)
    return [
        np.asarray(rng.standard_normal((m, n)), dtype=dtype)
        for _ in range(count)
    ]


def _assert_identical(got, exp):
    assert got.engine == exp.engine
    assert got.Q.dtype == exp.Q.dtype
    assert np.array_equal(got.Q, exp.Q)
    assert np.array_equal(got.R, exp.R)


@pytest.mark.parametrize(
    "dtype, m, n",
    [
        pytest.param(np.float64, M, N, id="float64"),
        pytest.param(np.float32, M, N, id="float32"),
        pytest.param(np.float64, 130, 17, id="130x17-float64"),
        pytest.param(np.float32, 130, 17, id="130x17-float32"),
        pytest.param(np.float64, 526, 17, id="526x17-float64"),
        pytest.param(np.float32, 526, 17, id="526x17-float32"),
    ],
)
def test_coalesced_rung_is_bit_identical(gated_server, dtype, m, n):
    """A whole window stacked through rung 1 equals per-request dispatch.

    At 130x17 and 526x17 the 16-wide first panel leaves a one-column
    trailing update, whose bits depend on the operand strides apply_wy
    sees: the stacked path must hand each request over as it would alone.
    """
    mats = _mats(8, dtype=dtype, m=m, n=n)
    reference = QRDispatcher()
    expected = [reference.qr(A) for A in mats]

    gated_server.hold()
    futures = [gated_server.server.submit(A) for A in mats]
    gated_server.release()
    results = [f.result(timeout=10.0) for f in futures]

    stats = gated_server.server.stats()
    assert stats.coalesced_requests == len(mats)
    assert stats.coalesced_batches == 1
    for got, exp in zip(results, expected):
        _assert_identical(got, exp)


def test_custom_batched_policy_stacks_and_matches_plan(gated_server):
    """A non-default batched geometry coalesces and matches its own plan."""
    policy = ExecutionPolicy(path="batched", panel_width=8, block_rows=32)
    mats = _mats(6)
    plan = plan_qr(M, N, policy=policy)
    expected = [plan.factor(A.copy()) for A in mats]

    gated_server.hold()
    futures = [
        gated_server.server.submit(A, policy=policy) for A in mats
    ]
    gated_server.release()
    results = [f.result(timeout=10.0) for f in futures]

    assert gated_server.server.stats().coalesced_requests == len(mats)
    for got, exp in zip(results, expected):
        assert np.array_equal(got.Q, exp.form_q())
        assert np.array_equal(got.R, exp.R)


def test_geqrt_slices_stack_and_match_plan(gated_server):
    """Level-0 and tree slices above the geqrt threshold stay bit-exact."""
    m, n = 2048, 64
    policy = ExecutionPolicy(path="batched", panel_width=64, block_rows=256)
    # The 256x64 level-0 blocks and the quad tree's 256x64 and 128x64
    # stacked-R nodes all take LAPACK geqrt; the default serving shapes
    # stay on the gufunc.
    assert 128 * n >= GEQRT_MIN_ELEMS > M * N
    mats = _mats(4, m=m, n=n)
    plan = plan_qr(m, n, policy=policy)
    expected = [plan.execute(A.copy()) for A in mats]

    gated_server.hold()
    futures = [
        gated_server.server.submit(A, policy=policy) for A in mats
    ]
    gated_server.release()
    results = [f.result(timeout=10.0) for f in futures]

    assert gated_server.server.stats().coalesced_requests == len(mats)
    for got, (Q, R) in zip(results, expected):
        assert np.array_equal(got.Q, Q)
        assert np.array_equal(got.R, R)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "m, n",
    [
        (64, 16),
        (GEQRT_MIN_ELEMS // 16 - 1, 16),
        (GEQRT_MIN_ELEMS // 16, 16),
        (200, 100),
    ],
    ids=["paper-block", "below-threshold", "at-threshold", "tall-geqrt"],
)
def test_factor_kernel_stack_equals_slices(m, n, dtype):
    """Stacking never changes a slice's factors, on either kernel."""
    A = np.asarray(np.random.default_rng(3).standard_normal((5, m, n)), dtype=dtype)
    V, T, R, tau = geqr2_blocked(A)
    for i in range(len(A)):
        Vi, Ti, Ri, taui = geqr2_blocked(A[i : i + 1])
        assert np.array_equal(Vi[0], V[i])
        assert np.array_equal(Ti[0], T[i])
        assert np.array_equal(Ri[0], R[i])
        assert np.array_equal(taui[0], tau[i])


def test_cholqr2_policy_stops_at_shared_plan(gated_server):
    """CholeskyQR2 groups must not stack (syrk order != stacked GEMM)."""
    policy = ExecutionPolicy(path="cholqr2")
    mats = _mats(5)
    plan = plan_qr(M, N, policy=policy)
    expected = [plan.factor(A.copy()) for A in mats]

    gated_server.hold()
    futures = [
        gated_server.server.submit(A, policy=policy) for A in mats
    ]
    gated_server.release()
    results = [f.result(timeout=10.0) for f in futures]

    stats = gated_server.server.stats()
    assert stats.coalesced_requests == 0
    assert stats.shared_plan_requests == len(mats)
    for got, exp in zip(results, expected):
        assert np.array_equal(got.Q, exp.form_q())
        assert np.array_equal(got.R, exp.R)


def test_coalesce_false_opts_out_without_changing_results(gated_server):
    """A tenant opts out of stacking with ``path="lookahead"``: the same
    engine as ``batched``, not coalescable, so it routes per request and
    gets the ``batched`` bits."""
    policy = ExecutionPolicy(path="lookahead")
    mats = _mats(4)
    plan = plan_qr(M, N, policy=ExecutionPolicy(path="batched"))
    expected = [plan.factor(A.copy()) for A in mats]

    gated_server.hold()
    futures = [
        gated_server.server.submit(A, policy=policy) for A in mats
    ]
    gated_server.release()
    results = [f.result(timeout=10.0) for f in futures]

    assert gated_server.server.stats().coalesced_requests == 0
    for got, exp in zip(results, expected):
        assert np.array_equal(got.Q, exp.form_q())
        assert np.array_equal(got.R, exp.R)


def test_mixed_dtypes_never_share_a_stack(gated_server):
    """f32 and f64 requests in one window group separately, both exact."""
    mats32 = _mats(4, dtype=np.float32, seed=1)
    mats64 = _mats(4, dtype=np.float64, seed=2)
    reference = QRDispatcher()
    exp32 = [reference.qr(A) for A in mats32]
    exp64 = [reference.qr(A) for A in mats64]

    gated_server.hold()
    futures = [
        gated_server.server.submit(A)
        for pair in zip(mats32, mats64)
        for A in pair
    ]
    gated_server.release()
    results = [f.result(timeout=10.0) for f in futures]

    stats = gated_server.server.stats()
    # One stacked batch per dtype: the group key includes dtype.str.
    assert stats.coalesced_requests == 8
    assert stats.coalesced_batches == 2
    for got, exp in zip(results[0::2], exp32):
        assert got.Q.dtype == np.float32
        _assert_identical(got, exp)
    for got, exp in zip(results[1::2], exp64):
        assert got.Q.dtype == np.float64
        _assert_identical(got, exp)


def test_nonfinite_request_fails_alone(gated_server):
    """One tenant's NaN poisons its own future, not the shared stack."""
    mats = _mats(6)
    bad = mats[2].copy()
    bad[3, 3] = np.nan
    reference = QRDispatcher()
    expected = [reference.qr(A) for A in mats]

    gated_server.hold()
    futures = []
    for i, A in enumerate(mats):
        futures.append(gated_server.server.submit(bad if i == 2 else A))
    gated_server.release()

    with pytest.raises(ValueError):
        futures[2].result(timeout=10.0)
    good = [f for i, f in enumerate(futures) if i != 2]
    exp_good = [e for i, e in enumerate(expected) if i != 2]
    for fut, exp in zip(good, exp_good):
        _assert_identical(fut.result(timeout=10.0), exp)
    stats = gated_server.server.stats()
    assert stats.failed == 1
    assert stats.coalesced_requests == 5


def test_qr_many_round_trip():
    """The convenience API on an ungated server: order and exactness."""
    mats = _mats(12, seed=9)
    reference = QRDispatcher()
    expected = [reference.qr(A) for A in mats]
    with QRServer() as server:
        results = server.qr_many(mats)
        stats = server.stats()
    assert stats.completed == len(mats)
    assert stats.failed == 0
    assert (
        stats.coalesced_requests
        + stats.shared_plan_requests
        + stats.per_request
        == len(mats)
    )
    for got, exp in zip(results, expected):
        _assert_identical(got, exp)
