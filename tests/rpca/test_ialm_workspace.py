"""The IALM loop's workspace: the bit contract, the buffers, the spans.

``rpca_ialm`` runs its elementwise stages as row-chunked passes over
buffers allocated once per solve.  These tests rebuild the iteration
with plain whole-array NumPy (the arithmetic ``perfbench``'s traced
ledger recomposes) and require equal bits, then pin what the buffers
promise: the input is only read, the outputs alias nothing, and a
steady-state iteration allocates no m x n array (the QR factors its
reflectors in the workspace's ``L`` and forms Q over them there).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.core.jacobi_svd import jacobi_svd
from repro.core.tsqr import tsqr_qr
from repro.rpca import ialm
from repro.rpca.adaptive import AdaptiveSVT
from repro.rpca.ialm import rpca_ialm
from repro.rpca.shrinkage import shrink


def _reference(M, max_iter, tol=0.0, svd=None, svt=None, callback=None):
    """The IALM loop as whole-array expressions, in the ledger's order."""
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    norm_M = np.linalg.norm(M)
    lam = 1.0 / np.sqrt(max(m, n))
    spectral = np.linalg.norm(M, 2)
    mu = 1.25 / spectral
    mu_max = mu * 1e7
    rho = 1.5
    Y = M / max(spectral, np.abs(M).max() / lam)
    S = np.zeros_like(M)
    L = np.zeros_like(M)
    residuals, ranks = [], []
    for it in range(1, max_iter + 1):
        X = M - S + Y / mu
        if svt is not None:
            L, rank = svt(X, 1.0 / mu)
        else:
            if svd is not None:
                U, s, Vt = svd(X)
            else:
                Q, R = tsqr_qr(X)
                U_small, s, Vt = jacobi_svd(R)
                U = Q @ U_small
            s_thr = shrink(s, 1.0 / mu)
            rank = int(np.count_nonzero(s_thr))
            L = (U[:, :rank] * s_thr[:rank]) @ Vt[:rank]
        S = shrink(M - L + Y / mu, lam / mu)
        residual_mat = M - L - S
        Y = Y + mu * residual_mat
        mu = min(mu * rho, mu_max)
        res = float(np.linalg.norm(residual_mat) / norm_M)
        residuals.append(res)
        ranks.append(rank)
        if callback is not None:
            callback(it, res)
        if res < tol:
            break
    return L, S, residuals, ranks


def _low_rank_plus_sparse(m, n, seed=0, rank=2):
    rng = np.random.default_rng(seed)
    L0 = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    S0 = np.where(rng.random((m, n)) < 0.05, 4.0 * rng.standard_normal((m, n)), 0.0)
    return L0 + S0


def _chunk_rows(n):
    return ialm.CHUNK_BYTES // (n * 8)


def _lapack_svd(A):
    return np.linalg.svd(A, full_matrices=False)


def _assert_same(result, ref):
    L, S, residuals, ranks = ref
    assert result.residuals == residuals
    assert result.ranks == ranks
    assert np.array_equal(result.L, L)
    assert np.array_equal(result.S, S)


SHAPES = {
    "chunks_and_ragged_tail": lambda: (3 * _chunk_rows(12) + 17, 12),
    "below_one_chunk": lambda: (_chunk_rows(12) // 2, 12),
    "exact_multiple": lambda: (2 * _chunk_rows(12), 12),
    "one_column": lambda: (_chunk_rows(1) + 5, 1),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bits_equal_whole_array_loop(shape):
    m, n = SHAPES[shape]()
    M = _low_rank_plus_sparse(m, n, rank=min(2, n))
    _assert_same(rpca_ialm(M, tol=0.0, max_iter=5), _reference(M, 5))


def test_early_exit_and_callback_match():
    m, n = 2 * _chunk_rows(20) + 3, 20
    M = _low_rank_plus_sparse(m, n, seed=1)
    seen, ref_seen = [], []
    res = rpca_ialm(M, tol=1e-6, max_iter=200, callback=lambda i, r: seen.append((i, r)))
    ref = _reference(M, 200, tol=1e-6, callback=lambda i, r: ref_seen.append((i, r)))
    assert res.converged and res.n_iterations == len(ref[2]) < 200
    assert seen == ref_seen
    _assert_same(res, ref)


def test_svd_override_bits():
    m, n = 2 * _chunk_rows(16) + 9, 16
    M = _low_rank_plus_sparse(m, n, seed=2)

    _assert_same(rpca_ialm(M, tol=0.0, max_iter=4, svd=_lapack_svd),
                 _reference(M, 4, svd=_lapack_svd))


def test_adaptive_svt_override_bits():
    m, n = 2 * _chunk_rows(16) + 9, 16
    M = _low_rank_plus_sparse(m, n, seed=3)
    _assert_same(rpca_ialm(M, tol=0.0, max_iter=6, svt=AdaptiveSVT(seed=4)),
                 _reference(M, 6, svt=AdaptiveSVT(seed=4)))


def test_svt_returning_its_input_keeps_l():
    # The override hands back the workspace buffer pass 2 overwrites
    # with the residual; the loop must keep that L intact.
    m, n = 2 * _chunk_rows(8) + 5, 8
    M = _low_rank_plus_sparse(m, n, seed=6)

    def echo(X, tau):
        return X, X.shape[1]

    _assert_same(rpca_ialm(M, tol=0.0, max_iter=3, svt=echo), _reference(M, 3, svt=echo))


# The SVT routes of the loop: the default QR -> Jacobi SVT run inline
# on the workspace, an ``svd=`` override and an ``svt=`` override.
ROUTES = {
    "direct": lambda: {},
    "svd_override": lambda: {"svd": _lapack_svd},
    "svt_override": lambda: {"svt": AdaptiveSVT(seed=4)},
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_input_untouched_and_outputs_unaliased(route):
    M = _low_rank_plus_sparse(2 * _chunk_rows(10) + 1, 10, seed=7)
    before = M.copy()
    res = rpca_ialm(M, tol=0.0, max_iter=3, **ROUTES[route]())
    assert np.array_equal(M, before)
    assert not np.shares_memory(res.L, M)
    assert not np.shares_memory(res.S, M)
    assert not np.shares_memory(res.L, res.S)


@pytest.mark.parametrize("route", list(ROUTES))
def test_wide_input_is_the_transposed_solve(route):
    M = _low_rank_plus_sparse(900, 30, seed=8)
    tall = rpca_ialm(M, tol=0.0, max_iter=4, **ROUTES[route]())
    wide = rpca_ialm(M.T, tol=0.0, max_iter=4, **ROUTES[route]())
    assert wide.L.shape == wide.S.shape == (30, 900)
    assert wide.residuals == tall.residuals and wide.ranks == tall.ranks
    assert np.array_equal(wide.L, tall.L.T)
    assert np.array_equal(wide.S, tall.S.T)


def test_wide_zero_matrix_keeps_orientation():
    res = rpca_ialm(np.zeros((3, 8)))
    assert res.converged and res.L.shape == res.S.shape == (3, 8)


def _steady_state_growth(m, n):
    """Traced growth of each IALM iteration after the first, in matrices.

    Measured over each whole iteration, QR included, from its start to
    its peak; the first iteration carries the solve's set-up and warms
    the kernels' scratch.  Forming Q over the reflectors copies one
    level-0 block's V at a time into a buffer of its own, so every
    iteration's peak holds one block of V.  Rank 1, so the rebuild's
    m x rank temporary is 1/n of a matrix.
    """
    M = _low_rank_plus_sparse(m, n, seed=9, rank=1)
    growth: list[int] = []
    mark = {}

    def callback(it, res):
        _, peak = tracemalloc.get_traced_memory()
        growth.append(peak - mark["start"])
        tracemalloc.reset_peak()
        mark["start"] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        mark["start"] = tracemalloc.get_traced_memory()[0]
        res = rpca_ialm(M, tol=0.0, max_iter=4, callback=callback)
    finally:
        tracemalloc.stop()
    assert max(res.ranks[1:]) == 1
    return [g / (m * n * 8) for g in growth[1:]]


def test_steady_state_iteration_allocates_no_full_matrix():
    # No m x n array: the QR factors its level-0 reflectors in the
    # workspace's L and forms Q over them there.  What is left is TSQR's
    # per-block n x n factors (R, T, the stacked Rs, Q's top rows), about
    # a fifth of a matrix at its 32n-row level-0 blocks and more where
    # the tree's fixed costs weigh, the copy of one block's V (a seventh
    # here: 0.32 in all, seven blocks), and the rebuild's temporary, a
    # fortieth.  A second m x n array, such as a Q beside the
    # reflectors, would cost a whole matrix more.
    for g in _steady_state_growth(10 * _chunk_rows(40) + 11, 40):
        assert g < 0.5, f"an iteration allocated {g:.2f} matrices"


def test_steady_state_iteration_at_many_blocks():
    # 32 blocks of 1280 rows and a ragged tail: the per-block factors
    # and one block's V settle near 0.18 of a matrix (0.178 at
    # 110592 x 100).
    for g in _steady_state_growth(32 * 32 * 40 + 17, 40):
        assert g < 0.3, f"an iteration allocated {g:.2f} matrices"


def test_iteration_spans_and_stream_counter():
    m, n = 20_000, 40
    M = _low_rank_plus_sparse(m, n, seed=10)
    with obs.capture() as session:
        rpca_ialm(M, tol=0.0, max_iter=2)
    t = session.trace
    iterations = [s for s in t.spans if s.name == "rpca.iteration"]
    assert len(iterations) == 2
    for it in iterations:
        assert it.cat == "rpca"
        names = [c.name for c in t.children(it.id)]
        assert names == ["rpca.svt_input", "rpca.svt", "rpca.update", "rpca.norm"]
        assert t.coverage(it) >= 0.95
    by_id = {s.id: s for s in t.spans}

    def under_svt(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "rpca.svt":
                return True
        return False

    for name in ("plan.factor", "tsqr.form_q", "rpca.small_svd", "rpca.qu", "rpca.rebuild"):
        spans = [s for s in t.spans if s.name == name]
        assert spans and all(under_svt(s) for s in spans), name
    # The solve validated M once; the SVT's QR never re-scans its input.
    assert not [s for s in t.spans if s.name == "guard.scan" and under_svt(s)]
    assert t.total_counters()["rpca_stream_bytes"] == 2 * 14 * m * n * 8
