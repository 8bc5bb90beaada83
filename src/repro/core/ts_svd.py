"""Tall-skinny SVD via QR — Section VI-B.

The well-known technique the paper uses to reduce the bulk of an SVD to a
QR decomposition::

    A = Q R
      = Q (U Sigma V^T)       # small SVD of the n x n R
      = (Q U) Sigma V^T
      = U' Sigma V^T

so the left singular vectors are ``Q @ U``.  The QR step can be any of the
engines in this library (TSQR, CAQR, blocked Householder, Cholesky QR),
which is exactly the knob Table II turns in the Robust PCA application.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .jacobi_svd import jacobi_svd
from .tsqr import tsqr_qr

__all__ = ["tall_skinny_svd"]

QRFunc = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def tall_skinny_svd(
    A: np.ndarray,
    qr: QRFunc = tsqr_qr,
    svd_small: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] = jacobi_svd,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U diag(s) V^T`` of a tall-skinny matrix via QR.

    Args:
        A: ``m x n`` with ``m >= n``.
        qr: any callable returning an explicit thin ``(Q, R)``
            (``tsqr_qr``, ``caqr_qr``, ``cholesky_qr``, ...).
        svd_small: SVD routine for the small ``n x n`` R (default: the
            from-scratch one-sided Jacobi — the "small SVD on the CPU").

    Returns:
        ``(U, s, Vt)`` with ``U`` of shape ``m x n``.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if m < n:
        raise ValueError("tall_skinny_svd requires m >= n")
    Q, R = qr(A)
    U_small, s, Vt = svd_small(R)
    U = Q @ U_small  # the Q * U product of Section VI-B
    return U, s, Vt
