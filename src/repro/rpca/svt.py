"""Singular value thresholding — the low-rank operator of Robust PCA.

"The algorithm thresholds (sets to zero) the smallest singular values of
L0 in order to make it low rank" (Section VI-C).  The SVD is computed via
QR (Section VI-B): any of the library's QR engines can be plugged in,
which is the knob Table II turns.

The kernels below write into caller-owned buffers, so the IALM loop
(:mod:`repro.rpca.ialm`) and :func:`singular_value_threshold` run the
same code.  The default
pipeline is the thin QR of ``X`` from a :func:`~repro.runtime.plan.plan_qr`
plan under ``ExecutionPolicy()`` (TSQR of the whole matrix, the bits of
``tsqr_qr``), factored in the buffer that then receives ``L`` and with
Q formed there over its reflectors; the
one-sided Jacobi SVD of ``R``; ``U = Q @ U_small``; and
``L = (U_r * s_r) @ Vt_r`` — the operations, and the operation order, of
:func:`~repro.core.ts_svd.tall_skinny_svd` followed by the rebuild, so
the bits match it.  ``tools/lint_layering.py`` keeps the application's
QR on the plan: nothing under ``repro.rpca`` imports ``tsqr`` or
``tsqr_qr``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.jacobi_svd import jacobi_svd
from repro.obs import tracer as _obs
from repro.runtime.plan import QRPlan, plan_qr

from .shrinkage import shrink

__all__ = ["rebuild_low_rank", "singular_value_threshold", "svt_from_qr", "svt_into"]

SVDFunc = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def rebuild_low_rank(
    U: np.ndarray, s: np.ndarray, Vt: np.ndarray, tau: float, out: np.ndarray
) -> int:
    """Soft-threshold ``s`` by ``tau`` and write ``U_r diag(s_r) Vt_r`` into ``out``.

    Returns the rank ``r``, the number of singular values above ``tau``.
    ``out`` is written whole (zeros at rank 0) and must not overlap ``U``.
    """
    s_thr = shrink(s, tau)
    rank = int(np.count_nonzero(s_thr))
    with _obs.span("rpca.rebuild", cat="rpca", rank=rank):
        np.matmul(U[:, :rank] * s_thr[:rank], Vt[:rank], out=out)
        _obs.counters(rpca_stream_bytes=out.nbytes)  # write L
    return rank


def svt_from_qr(
    Q: np.ndarray, R: np.ndarray, tau: float, U: np.ndarray, L: np.ndarray
) -> int:
    """Finish the default SVT from the thin QR of its input.

    The small SVD of ``R``, then ``Q @ U_small`` into ``U`` (which may be
    the factored matrix itself) and the rebuild into ``L`` (which may be
    ``Q`` itself: Q is last read by the product, before the rebuild
    writes ``L``).  ``U`` must not overlap ``Q``.  Returns the rank.
    """
    with _obs.span("rpca.small_svd", cat="rpca"):
        U_small, s, Vt = jacobi_svd(R)
    with _obs.span("rpca.qu", cat="rpca"):
        np.matmul(Q, U_small, out=U)  # the Q * U product of Section VI-B
        _obs.counters(rpca_stream_bytes=Q.nbytes + U.nbytes)  # read Q, write U
    return rebuild_low_rank(U, s, Vt, tau, L)


def svt_into(
    X: np.ndarray,
    tau: float,
    L: np.ndarray,
    svd: SVDFunc | None = None,
    *,
    plan: QRPlan,
) -> int:
    """Singular value threshold of ``X`` written into ``L``; returns the rank.

    With the default SVD, ``X`` and ``L`` (tall, float64, C-contiguous,
    not overlapping) are the SVT's whole m x n memory: ``plan.execute(X,
    validated=True, out=L)`` factors TSQR's level-0 reflectors in ``L``
    and forms Q over them there, ``X`` receives ``Q @ U_small``, and
    ``L`` then receives the rebuild; no other m x n array is
    allocated.  On return ``X`` holds those left
    singular vectors and ``L`` the thresholded matrix; ``L``'s old
    contents are never read.  ``X`` is not scanned for non-finite
    entries (the IALM validated its input once).  ``plan`` is the QR
    plan of ``X``'s shape, reused across calls: the IALM workspace
    builds one per solve.  An ``svd`` override reads ``X`` and returns
    ``(U, s, Vt)`` as ``np.linalg.svd(X, full_matrices=False)`` does;
    ``plan`` then goes unused.
    """
    if svd is None:
        Q, R = plan.execute(X, validated=True, out=L)
        return svt_from_qr(Q, R, tau, X, L)
    U, s, Vt = svd(X)
    return rebuild_low_rank(U, s, Vt, tau, L)


def singular_value_threshold(
    X: np.ndarray,
    tau: float,
    svd: SVDFunc | None = None,
) -> tuple[np.ndarray, int]:
    """Proximal operator of the nuclear norm.

    Computes the thin SVD of ``X`` (via QR by default — the Figure 11
    pipeline), soft-thresholds the singular values by ``tau`` and
    reassembles.  Returns ``(L, rank)`` where ``rank`` is the number of
    singular values surviving the threshold.  ``X`` is not modified.
    A wide ``X`` is solved as its transpose, as
    :func:`~repro.rpca.ialm.rpca_ialm` solves a wide ``M``: ``L`` is
    then ``singular_value_threshold(X.T)``'s, transposed.
    """
    if tau < 0:
        raise ValueError("threshold must be non-negative")
    if svd is not None:
        U, s, Vt = svd(X)
        L = np.empty((U.shape[0], Vt.shape[1]))
        return L, rebuild_low_rank(U, s, Vt, tau, L)
    X = np.asarray(X, dtype=float)
    if X.shape[0] < X.shape[1]:
        L, rank = singular_value_threshold(X.T, tau)
        return L.T, rank
    L = np.empty(X.shape)
    Q, R = plan_qr(*X.shape).execute(X, out=L)  # validates X; Q lives in L
    return L, svt_from_qr(Q, R, tau, np.empty(X.shape), L)
