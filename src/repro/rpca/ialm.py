"""Robust PCA by inexact augmented Lagrangian alternating directions.

The Section VI-C algorithm (Candès et al. / Yuan-Yang): decompose
``M = L0 + S0`` by minimizing ``||L||_* + lam ||S||_1`` subject to
``M = L + S``, alternating a singular-value threshold on L (Figure 11)
with an l1 shrinkage on S and a dual update.  "The vast majority of the
runtime is spent in the singular value threshold, specifically the SVD of
the L0 matrix" — which is why swapping the QR engine under the SVD is
worth 30x end to end (Table II).

The elementwise part of an iteration runs in :class:`IALMWorkspace`:
four m x n buffers allocated once per solve, swept in row chunks whose
temporaries stay in cache.  The workspace also holds the solve's one QR
plan, and the SVT factors in its ``L`` buffer and forms Q there, so an
iteration allocates no m x n array.  Every element goes
through the NumPy operations of the whole-array loop, in its order::

    X = M - S + Y / mu
    L, rank = svt(X, 1 / mu)
    S = shrink(M - L + Y / mu, lam / mu)
    R = M - L - S
    Y = Y + mu * R

so L, S, the ranks and the residual history are bit for bit that loop's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import tracer as _obs
from repro.runtime.plan import plan_qr
from repro.runtime.policy import ExecutionPolicy

from .shrinkage import shrink_into
from .svt import SVDFunc, svt_into

SVTFunc = Callable[[np.ndarray, float], tuple[np.ndarray, int]]

__all__ = ["CHUNK_BYTES", "IALMWorkspace", "RPCAResult", "rpca_ialm"]

#: Bytes of one operand chunk in the elementwise passes (rows =
#: CHUNK_BYTES // (n * itemsize)), small enough that a chunk of every
#: operand and both temporaries stay in L2.  The winner of
#: ``benchmarks/bench_block_height.py --sweep ialm``
#: (``benchmarks/results/ialm_chunk.txt``).
CHUNK_BYTES = 256 * 1024


@dataclass
class RPCAResult:
    """Converged (or iteration-capped) Robust PCA decomposition."""

    L: np.ndarray
    S: np.ndarray
    n_iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)

    @property
    def final_rank(self) -> int:
        return self.ranks[-1] if self.ranks else 0


class IALMWorkspace:
    """The buffers of one IALM solve and its two elementwise passes.

    ``M`` (C-contiguous float64) is only read; ``Y`` (the dual, same
    layout) is taken over.  ``S``, ``L`` and ``X`` are allocated here,
    once, and so is ``plan``, the SVT's QR plan
    (``plan_qr(m, n, float64, ExecutionPolicy())``).  ``X`` holds the SVT
    input, then the left singular vectors ``Q @ U_small``, then the
    residual ``M - L - S``; ``L`` holds the QR's level-0 reflectors,
    then Q formed over them (:func:`~repro.rpca.svt.svt_into`), then the
    new low-rank matrix.  No other m x n array is allocated, within the
    SVT either: what the QR allocates is its per-block n x n factors.
    The passes sweep row chunks of
    ``chunk_bytes`` per operand through two chunk-sized temporaries and
    add the m x n streams they make to the ``rpca_stream_bytes`` obs
    counter.
    """

    def __init__(self, M: np.ndarray, Y: np.ndarray, chunk_bytes: int = CHUNK_BYTES) -> None:
        m, n = M.shape
        self.M = M
        self.Y = Y
        self.S = np.zeros_like(M)
        self.L = np.zeros_like(M)
        self.X = np.empty_like(M)
        self.plan = plan_qr(m, n, np.float64, ExecutionPolicy())
        self.rows = max(1, min(m, chunk_bytes // (n * M.itemsize)))
        self._t1 = np.empty((self.rows, n))
        self._t2 = np.empty((self.rows, n))

    def _chunks(self):
        m, rows = self.M.shape[0], self.rows
        for r0 in range(0, m, rows):
            r1 = min(r0 + rows, m)
            yield slice(r0, r1), self._t1[: r1 - r0], self._t2[: r1 - r0]

    def svt_input(self, mu: float) -> None:
        """Pass 1: ``X = (M - S) + Y / mu``."""
        M, S, Y, X = self.M, self.S, self.Y, self.X
        with _obs.span("rpca.svt_input", cat="rpca", rows=self.rows):
            for c, t1, t2 in self._chunks():
                np.subtract(M[c], S[c], out=t1)
                np.divide(Y[c], mu, out=t2)
                np.add(t1, t2, out=X[c])
            _obs.counters(rpca_stream_bytes=4 * M.nbytes)  # read M, S, Y; write X

    def update(self, L: np.ndarray, mu: float, tau: float) -> None:
        """Pass 2, given the new ``L``: shrinkage, residual, dual update.

        ``S = shrink((M - L) + Y / mu, tau)``, ``X = (M - L) - S`` and
        ``Y = Y + mu * X``; ``M - L`` is formed once per chunk and read
        by the first two.
        """
        M, S, Y, X = self.M, self.S, self.Y, self.X
        with _obs.span("rpca.update", cat="rpca", rows=self.rows):
            for c, t1, t2 in self._chunks():
                np.subtract(M[c], L[c], out=t1)
                np.divide(Y[c], mu, out=t2)
                np.add(t1, t2, out=t2)
                shrink_into(t2, tau, out=S[c])
                np.subtract(t1, S[c], out=X[c])
                np.multiply(mu, X[c], out=t1)
                np.add(Y[c], t1, out=Y[c])
            # read M, L, Y; write S, X, Y
            _obs.counters(rpca_stream_bytes=6 * M.nbytes)

    def residual_norm(self) -> float:
        """``||M - L - S||_F``, from the residual pass 2 left in ``X``."""
        with _obs.span("rpca.norm", cat="rpca"):
            norm = np.linalg.norm(self.X)
            _obs.counters(rpca_stream_bytes=self.X.nbytes)
        return norm


def rpca_ialm(
    M: np.ndarray,
    lam: float | None = None,
    mu: float | None = None,
    rho: float = 1.5,
    tol: float = 1e-7,
    max_iter: int = 500,
    svd: SVDFunc | None = None,
    svt: SVTFunc | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> RPCAResult:
    """Decompose ``M`` into low-rank ``L`` plus sparse ``S``.

    Args:
        M: observed matrix (for video: pixels x frames, tall-skinny).
            A wide matrix is solved as its transpose (the problem is
            transpose-invariant) and ``L``/``S`` come back in its
            orientation.  ``M`` is not modified, and neither ``L`` nor
            ``S`` aliases it.
        lam: sparsity weight; default ``1/sqrt(max(m, n))`` (the standard
            Robust PCA choice from Candès et al.).
        mu: initial augmented-Lagrangian penalty; default
            ``1.25 / ||M||_2``.
        rho: penalty growth factor per iteration.
        tol: convergence threshold on ``||M - L - S||_F / ||M||_F``.
        max_iter: iteration cap (the paper's problem "technically takes
            over 500 iterations to converge, however the solution begins
            to look good earlier").
        svd: SVD engine used inside the singular-value threshold
            (defaults to the QR-based tall-skinny SVD).
        svt: full SVT operator override ``(X, tau) -> (L, rank)`` — e.g.
            :class:`repro.rpca.adaptive.AdaptiveSVT` for rank-adaptive
            partial SVDs.  Takes precedence over ``svd``.  ``X`` is a
            workspace buffer the loop overwrites after the call.
        callback: optional per-iteration hook ``(iteration, residual)``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("M must be a non-empty 2-D matrix")
    if not np.isfinite(M).all():
        raise ValueError("Robust PCA requires finite input (NaN/Inf found)")
    wide = M.shape[0] < M.shape[1]
    result = _solve(
        np.ascontiguousarray(M.T if wide else M),
        lam=lam, mu=mu, rho=rho, tol=tol, max_iter=max_iter,
        svd=svd, svt=svt, callback=callback,
    )
    if wide:
        result.L, result.S = result.L.T, result.S.T
    return result


def _solve(M, *, lam, mu, rho, tol, max_iter, svd, svt, callback) -> RPCAResult:
    """The solve on a tall (m >= n), C-contiguous float64 ``M``."""
    m, n = M.shape
    norm_M = np.linalg.norm(M)
    if norm_M == 0.0:
        return RPCAResult(L=np.zeros_like(M), S=np.zeros_like(M), n_iterations=0, converged=True)
    if lam is None:
        lam = 1.0 / np.sqrt(max(m, n))
    spectral = np.linalg.norm(M, 2)
    if mu is None:
        mu = 1.25 / spectral
    mu_max = mu * 1e7
    # Dual initialization of Lin et al.: Y = M / max(||M||_2, ||M||_inf/lam).
    ws = IALMWorkspace(M, M / max(spectral, np.abs(M).max() / lam))
    residuals: list[float] = []
    ranks: list[int] = []
    converged = False
    it = 0
    L = ws.L
    for it in range(1, max_iter + 1):
        with _obs.span("rpca.iteration", cat="rpca", it=it, m=m, n=n):
            ws.svt_input(mu)
            with _obs.span("rpca.svt", cat="rpca"):
                if svt is None:
                    rank = svt_into(ws.X, 1.0 / mu, ws.L, svd=svd, plan=ws.plan)
                else:
                    L, rank = svt(ws.X, 1.0 / mu)
                    # Pass 2 overwrites X, S and Y: keep an L that shares
                    # their memory (say, the input handed back) in ws.L.
                    if any(np.may_share_memory(L, b) for b in (ws.X, ws.S, ws.Y)):
                        np.copyto(ws.L, L)
                        L = ws.L
            ws.update(L, mu, lam / mu)
            mu = min(mu * rho, mu_max)
            res = float(ws.residual_norm() / norm_M)
        residuals.append(res)
        ranks.append(rank)
        if callback is not None:
            callback(it, res)
        if res < tol:
            converged = True
            break
    return RPCAResult(L=L, S=ws.S, n_iterations=it, converged=converged, residuals=residuals, ranks=ranks)
