"""Randomized partial SVD with a TSQR range finder.

The Robust PCA iteration only needs the singular values above the
threshold, yet Section VI computes a full thin SVD each time.  A
randomized range finder (Halko-Martinsson-Tropp) needs exactly one
tall-skinny QR — this library's specialty — of the sampled matrix
``A Omega``: a natural extension the paper's machinery makes cheap, and
the basis of the rank-adaptive SVT in :mod:`repro.rpca`.
"""

from __future__ import annotations

import numpy as np

from repro.obs import tracer as _obs
from repro.runtime.policy import ExecutionPolicy
from repro.verify.guards import validate_matrix

from .jacobi_svd import jacobi_svd
from .tsqr import _tsqr_impl, level0_rows

__all__ = ["randomized_range_finder", "randomized_svd"]

# The range finder samples thin (k + oversample wide) matrices, so the
# paper's 64-row blocks would make needlessly deep trees: 256 rows is the
# pre-policy default, kept as this module's base policy.
_RSVD_DEFAULT = ExecutionPolicy(block_rows=256)


def _tsqr_q(Y: np.ndarray, policy: ExecutionPolicy) -> np.ndarray:
    """Explicit TSQR Q under ``policy``.

    Internal only — the caller validated its input already, so this goes
    straight to :func:`~repro.core.tsqr._tsqr_impl` (no guard re-scan).
    """
    f = _tsqr_impl(
        Y,
        block_rows=policy.block_rows,
        tree_shape=policy.tree_shape,
        structured=policy.uses_structured,
    )
    return f.form_q()


def _range_finder(A, k, oversample, power_iters, rng, policy) -> np.ndarray:
    """The range finder's stages on a validated float64 ``A``, each in
    its ``rsvd.*`` span under the caller's root ``rsvd`` span."""
    n = A.shape[1]
    if k < 1:
        raise ValueError("target rank k must be >= 1")
    ell = min(k + oversample, n)
    rng = rng or np.random.default_rng(0)
    with _obs.span("rsvd.sketch", cat="rsvd", ell=ell):
        Y = A @ rng.standard_normal((n, ell))
    with _obs.span("rsvd.qr", cat="rsvd"):
        Q = _tsqr_q(Y, policy)
    for _ in range(power_iters):
        with _obs.span("rsvd.project", cat="rsvd"):
            Z = A.T @ Q
        with _obs.span("rsvd.qr", cat="rsvd"):
            if n < level0_rows(policy.block_rows, ell):
                Zq, _ = np.linalg.qr(Z)
            else:
                Zq = _tsqr_q(Z, policy)
        with _obs.span("rsvd.sketch", cat="rsvd", ell=ell):
            Y = A @ Zq
        with _obs.span("rsvd.qr", cat="rsvd"):
            Q = _tsqr_q(Y, policy)
    return Q


def randomized_range_finder(
    A: np.ndarray,
    k: int,
    oversample: int = 8,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> np.ndarray:
    """Orthonormal basis approximately spanning A's leading k-range.

    ``Q = tsqr_qr(A @ Omega)`` with Gaussian ``Omega`` and optional
    power iterations (each one re-orthogonalized through TSQR for
    stability).  The SVD pipeline computes in float64 regardless of input
    precision.
    """
    policy = policy if policy is not None else _RSVD_DEFAULT
    A = validate_matrix(
        A, where="randomized_range_finder", nonfinite=policy.nonfinite, dtype=np.float64
    )
    m, n = A.shape
    with _obs.span("rsvd", cat="rsvd", m=m, n=n, k=k):
        return _range_finder(A, k, oversample, power_iters, rng, policy)


def randomized_svd(
    A: np.ndarray,
    k: int,
    oversample: int = 8,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate rank-k thin SVD ``A ~= U diag(s) V^T``.

    Returns factors truncated to ``k`` columns.  Accuracy follows the HMT
    bounds: near-exact when A's spectrum decays past rank k (exactly the
    Robust PCA situation, where L is low-rank by construction).
    """
    policy = policy if policy is not None else _RSVD_DEFAULT
    A = validate_matrix(A, where="randomized_svd", nonfinite=policy.nonfinite, dtype=np.float64)
    m, n = A.shape
    if m < n:
        U, s, Vt = randomized_svd(
            A.T,
            k,
            oversample,
            power_iters,
            rng,
            policy=policy.with_nonfinite("propagate"),
        )
        return Vt.T, s, U.T
    with _obs.span("rsvd", cat="rsvd", m=m, n=n, k=k):
        Q = _range_finder(A, k, oversample, power_iters, rng, policy)
        with _obs.span("rsvd.project", cat="rsvd"):
            B = Q.T @ A  # ell x n, small
        with _obs.span("rsvd.svd", cat="rsvd"):
            Ub, s, Vt = jacobi_svd(B.T)  # jacobi wants tall: factor B^T
            # B = (Vt.T * s) @ Ub.T  =>  B's left vectors are Vt.T's columns.
            U_small, s, Vt_small = Vt.T, s, Ub.T
            U = Q @ U_small
    k = min(k, s.size)
    return U[:, :k], s[:k], Vt_small[:k]
