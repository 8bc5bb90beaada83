"""One-sided Jacobi SVD for small matrices, built from scratch.

The paper computes the SVD of the small ``n x n`` R factor on the CPU
(Section VI-B: "we find the SVD of R, which is cheap because R is an
n x n matrix").  This module provides that substrate: a one-sided Jacobi
SVD, chosen because it is simple, accurate to high relative precision,
and needs no bidiagonalization machinery.

``A V = U diag(s)``: sweeps of plane rotations orthogonalize the columns
of a working copy of A; the column norms converge to the singular values.
"""

from __future__ import annotations

import numpy as np

from .dtypes import as_float_array, working_dtype

__all__ = ["jacobi_svd", "svd_via_jacobi"]


def _round_robin_step(n2: int) -> np.ndarray:
    """Row gather that advances the round-robin tournament by one round.

    Round pairs are rows ``(i, n2/2 + i)``.  Row 0 stays put and every
    other row moves one place along the ring ``1 .. n2/2-1`` (top half,
    forward) then ``n2-1 .. n2/2`` (bottom half, backward), so ``n2 - 1``
    rounds meet every pair exactly once and turn the ring a full circle:
    after each sweep the rows are back in their original order.
    """
    h = n2 // 2
    ring = np.r_[1:h, n2 - 1 : h - 1 : -1]
    step = np.arange(n2)
    step[ring] = np.roll(ring, 1)
    return step


def _rotations(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, tol: float
) -> tuple[np.ndarray | None, np.ndarray | None, float]:
    """``(c, s, off)`` for one round of disjoint column pairs.

    ``alpha``/``beta`` are the squared norms of each pair's columns and
    ``gamma`` their inner product.  ``off`` is the round's largest
    normalized inner product; ``c``/``s`` are ``None`` when no pair needs
    a rotation, and exactly ``1``/``0`` for the pairs that do not.
    """
    # sqrt separately: alpha * beta can underflow to zero for
    # denormal-scale columns even when both are nonzero.
    denom = np.sqrt(alpha) * np.sqrt(beta)
    live = denom > 0.0  # a zero (or pad) column is orthogonal to anything
    ag = np.abs(gamma)
    off = float(np.max(ag[live] / denom[live], initial=0.0))
    rotate = live & (ag > tol * denom)
    if not rotate.any():
        return None, None, off
    # Classic two-sided-symmetric rotation on each pair's Gram 2x2.
    with np.errstate(over="ignore"):
        zeta = (beta - alpha) / (2.0 * np.where(rotate, gamma, 1.0))
        t = np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
    # zeta^2 overflows past 1e150: use the asymptotic tangent (otherwise
    # the rotation degenerates to a no-op and extreme-scale columns
    # never orthogonalize).
    big = np.abs(zeta) > 1e150
    t[big] = 0.5 / zeta[big]
    t[zeta == 0.0] = 1.0
    t[~rotate] = 0.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, c * t, off


def jacobi_svd(
    A: np.ndarray,
    tol: float = 1e-14,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of an ``m x n`` matrix with ``m >= n``.

    Returns ``(U, s, Vt)`` with ``U`` of shape ``m x n`` (thin), singular
    values sorted descending, and the sign convention that each singular
    value is non-negative.

    Each sweep visits every column pair once in round-robin (tournament)
    order: ``n - 1`` rounds of ``n / 2`` disjoint pairs, with a zero pad
    column making ``n`` even.  Row ``j`` of one working buffer holds
    column ``j`` of ``U`` followed by column ``j`` of ``V``, and the
    buffer is kept permuted so that every round pairs its top half with
    its bottom half: a round is a few whole-array NumPy operations on two
    contiguous half-slices, followed by one row gather into the next
    round's order.  Pairs whose columns are zero, or already orthogonal
    to ``tol``, get the identity rotation.

    Args:
        A: input matrix, ``m >= n``.
        tol: convergence threshold on the normalized off-diagonal inner
            products ``|a_i . a_j| / (||a_i|| ||a_j||)``.
        max_sweeps: hard cap on the number of full column-pair sweeps.

    Raises:
        RuntimeError: if the sweep limit is reached without converging.
    """
    A = as_float_array(A)
    m, n = A.shape
    if m < n:
        raise ValueError("jacobi_svd requires m >= n (pass A.T and swap U/V)")
    if A.size and not np.isfinite(A).all():
        raise ValueError("jacobi_svd requires finite input (NaN/Inf found)")
    dt = working_dtype(A)
    if n == 0:
        return np.zeros((m, 0), dtype=dt), np.zeros(0, dtype=dt), np.zeros((0, 0), dtype=dt)
    n2 = n + n % 2
    h = n2 // 2
    X = np.zeros((n2, m + n), dtype=dt)
    X[:n, :m] = A.T
    X[:n, m:] = np.eye(n, dtype=dt)
    step = _round_robin_step(n2)
    for _ in range(max_sweeps):
        off = 0.0
        for _ in range(n2 - 1):
            U = X[:, :m]
            # Rotation angles are computed in float64 for float32 data too.
            norms = np.einsum("ij,ij->i", U, U).astype(np.float64, copy=False)
            gamma = np.einsum("ij,ij->i", U[:h], U[h:]).astype(np.float64, copy=False)
            c, s, round_off = _rotations(norms[:h], norms[h:], gamma, tol)
            off = max(off, round_off)
            if c is not None:
                c = c.astype(dt, copy=False)[:, None]
                s = s.astype(dt, copy=False)[:, None]
                top, bot = X[:h], X[h:]
                s_bot = s * bot
                bot *= c
                bot += s * top
                top *= c
                top -= s_bot
            X = X[step]
        if off <= tol:
            break
    else:
        raise RuntimeError(f"Jacobi SVD did not converge in {max_sweeps} sweeps")
    X = X[:n]  # a whole sweep restores the column order; drop the pad
    sing = np.linalg.norm(X[:, :m], axis=1)
    order = np.argsort(sing)[::-1]
    sing = sing[order]
    X = X[order]
    nonzero = sing > 0
    X[nonzero, :m] /= sing[nonzero, None]
    # Columns with zero singular value: leave as zeros (rank-deficient input).
    X[~nonzero, :m] = 0.0
    return np.ascontiguousarray(X[:, :m].T), sing, np.ascontiguousarray(X[:, m:])


def svd_via_jacobi(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of any small matrix, transposing internally when ``m < n``."""
    A = as_float_array(A)
    m, n = A.shape
    if m >= n:
        return jacobi_svd(A)
    U, s, Vt = jacobi_svd(A.T)
    return Vt.T, s, U.T
