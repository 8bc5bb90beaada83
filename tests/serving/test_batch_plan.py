"""ServingPlan / stacked_qr: geometry coverage and the staging pool.

The stacked executor must reproduce the per-request batched path bit for
bit on every tree geometry the planner can emit — single block, ragged
tail, multi-level trees, multiple panels — because the server caches one
plan per shape and runs every tenant through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import ExecutionPolicy, plan_qr
from repro.serving import ServingPlan, stacked_qr


def _policy(**kw):
    return ExecutionPolicy(path="batched", **kw)


def _reference(mats, m, n, policy, dtype=np.float64):
    plan = plan_qr(m, n, dtype=dtype, policy=policy)
    out = []
    for A in mats:
        f = plan.factor(A.copy())
        out.append((f.form_q(), f.R))
    return out


@pytest.mark.parametrize(
    "m,n,kw",
    [
        (64, 16, {}),                                   # single level-0 block
        (96, 16, {"block_rows": 32}),                   # clean multi-block tree
        (100, 16, {"block_rows": 32}),                  # ragged tail block
        (96, 32, {"panel_width": 16, "block_rows": 32}),  # multiple panels
        (200, 24, {"panel_width": 8, "block_rows": 48}),  # panels + ragged
    ],
)
def test_stacked_matches_per_request_bitwise(m, n, kw):
    policy = _policy(**kw)
    rng = np.random.default_rng(42)
    mats = [rng.standard_normal((m, n)) for _ in range(5)]
    expected = _reference(mats, m, n, policy)

    plan = ServingPlan(m, n, np.float64, policy)
    Q, R = stacked_qr(mats, plan)
    for i, (Qe, Re) in enumerate(expected):
        assert np.array_equal(Q[i], Qe)
        assert np.array_equal(R[i], Re)


def test_float32_stack_stays_float32_and_exact():
    policy = _policy(block_rows=32)
    rng = np.random.default_rng(5)
    mats = [
        np.asarray(rng.standard_normal((96, 16)), dtype=np.float32)
        for _ in range(4)
    ]
    expected = _reference(mats, 96, 16, policy, dtype=np.float32)
    plan = ServingPlan(96, 16, np.float32, policy)
    Q, R = stacked_qr(mats, plan)
    assert Q.dtype == R.dtype == np.float32
    for i, (Qe, Re) in enumerate(expected):
        assert np.array_equal(Q[i], Qe)
        assert np.array_equal(R[i], Re)


def test_plan_rejects_non_batched_paths():
    with pytest.raises(ValueError, match="batched"):
        ServingPlan(96, 16, np.float64, ExecutionPolicy(path="cholqr2"))


def test_staging_pool_grows_to_high_water_and_reuses():
    plan = ServingPlan(64, 16, np.float64, _policy())
    big = plan.staging(6)
    assert big.shape == (6, 64, 16)
    small = plan.staging(2)
    assert small.shape == (2, 64, 16)
    # The smaller request is a view of the pooled high-water buffer.
    assert np.shares_memory(small, big)
    bigger = plan.staging(9)
    assert bigger.shape == (9, 64, 16)


def test_repeated_factorizations_through_one_plan_are_stable():
    """Plan reuse (the server's steady state) must not drift results."""
    policy = _policy(block_rows=32)
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((96, 16)) for _ in range(3)]
    plan = ServingPlan(96, 16, np.float64, policy)
    Q1, R1 = stacked_qr(mats, plan)
    Q1, R1 = Q1.copy(), R1.copy()
    # Interleave a different batch to dirty the staging buffer.
    stacked_qr([rng.standard_normal((96, 16)) for _ in range(5)], plan)
    Q2, R2 = stacked_qr(mats, plan)
    assert np.array_equal(Q1, Q2)
    assert np.array_equal(R1, R2)


def _dispatcher_policy():
    from repro.dispatch import QRDispatcher

    return QRDispatcher().policy


@pytest.mark.parametrize("policy", [ExecutionPolicy, _dispatcher_policy], ids=["default", "dispatcher"])
@pytest.mark.parametrize("m,n", [(4000, 100), (700, 48), (90, 200)])
def test_stack_is_the_default_driver(policy, m, n):
    """A stack runs the default path's driver: one tall panel (Q in
    TSQR's orgqr form) under ExecutionPolicy(), 16-wide panels under the
    dispatcher's; slice i is the plan's factor of request i, bit for bit."""
    policy = policy()
    rng = np.random.default_rng(17)
    mats = [rng.standard_normal((m, n)) for _ in range(3)]
    plan = plan_qr(m, n, policy=policy)
    f = plan.factor(mats[1])
    Qe, Re = f.form_q(), f.R
    if policy.panel_width is None and (m, n) == (4000, 100):
        assert len(f.panels) == 1
        # Precondition: the orgqr form is not apply_q(I) bit for bit here.
        assert not np.array_equal(Qe, f.apply_q(np.eye(m, n)))
    Q, R = stacked_qr(mats, ServingPlan(m, n, np.float64, policy))
    assert np.array_equal(Q[1], Qe) and np.array_equal(R[1], Re)
    for i in (0, 2):
        g = plan.factor(mats[i])
        assert np.array_equal(Q[i], g.form_q()) and np.array_equal(R[i], g.R)
