"""Cholesky QR, CholeskyQR2, and the guarded BLAS3 fast-path engine.

Section II: "Cholesky QR and the Gram-Schmidt process are not as
numerically stable, so most general-purpose software for QR uses either
Givens rotations or Householder reflectors."  We implement Cholesky QR so
the stability comparison is demonstrable: its orthogonality error grows
with ``cond(A)^2`` while TSQR's stays at machine precision, and it fails
outright (Cholesky breakdown) near ``cond(A) ~ 1/sqrt(eps)``.

CholeskyQR2 (a single reorthogonalization pass) fixes the orthogonality
loss for moderately conditioned input, and on GPUs it is the *fast*
tall-skinny path: two BLAS3 passes (~4mn^2 flops, O(1) kernel launches)
vs the reduction tree's ~100 launches.  :func:`cholqr2_factor` is that
engine, promoted from background demo to a first-class execution path:

* column equilibration in float64 (huge/tiny inputs factor without
  overflow — the scale folds back into R);
* Gram accumulation / triangular multiplies via :mod:`repro.smallblas`
  (single ``syrk``/``trmm`` calls when SciPy's BLAS is importable,
  blocked NumPy otherwise);
* a *fused* second pass when the first-pass condition estimate is tiny:
  the reorthogonalization Gram is the exact small-matrix algebra
  ``G2 = R1^{-T} G1 R1^{-1}``, so the second ``syrk`` over all ``m``
  rows and one of the two big triangular multiplies disappear;
* an optional float32 first-pass Gram (``mixed=True``) — only the Gram
  accumulation drops precision; the Cholesky/inverse smalls and both
  ``m x n`` multiplies stay float64, and the float64
  reorthogonalization pass restores full orthogonality;
* breakdown *signaling*: a failed Cholesky raises
  :class:`CholeskyBreakdownError` carrying the stage and condition
  estimate, so the runtime layer can fall back to the Householder tree
  instead of surfacing a bare linear-algebra error.

The engine makes **no** accept/reject decisions itself: the ``check``
callback (owned by :class:`repro.runtime.cholqr.CholQRGuard`) sees the
condition estimates and the post-hoc ``||Q1^T Q1 - I||`` and may raise
to stop the factorization.  ``tools/lint_layering.py`` enforces that
split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.smallblas.gram import (
    gram,
    tri_inv_upper,
    trmm_right_inplace,
    trsm_right_inplace,
)

from .dtypes import q_buffer
from .triangular import SingularTriangularError, cholesky

__all__ = [
    "CholQRInfo",
    "CholQRWorkspace",
    "CholeskyBreakdownError",
    "FUSED_COND_LIMIT",
    "cholesky_qr",
    "cholesky_qr2",
    "cholqr2_factor",
]

# The fused second pass replaces the big reorthogonalization syrk with
# exact small-matrix algebra, but its final combined triangular multiply
# rounds like eps * n * cond(A); restrict it to essentially orthonormal
# first passes so both variants keep orthogonality at machine precision.
FUSED_COND_LIMIT = 16.0


class CholeskyBreakdownError(SingularTriangularError):
    """Cholesky of a Gram matrix failed mid-CholeskyQR2.

    Subclasses :class:`SingularTriangularError` so existing callers that
    treat Cholesky QR breakdown as "input too ill-conditioned" keep
    working; carries ``stage`` (``"gram"`` / ``"reorth"``) and the last
    ``condest`` so the runtime fallback can report *why* it bailed.
    """

    def __init__(self, message: str, *, stage: str = "gram",
                 condest: float | None = None):
        super().__init__(message)
        self.stage = stage
        self.condest = condest


@dataclass
class CholQRInfo:
    """What one :func:`cholqr2_factor` run did (for spans and tests)."""

    condest: float  # max/min diagonal ratio of the first Cholesky factor
    orth1: float  # ||Q1^T Q1 - I||_F after pass 1 (pass-2 convergence)
    fused: bool  # second pass ran as small-matrix algebra
    mixed: bool  # first-pass Gram accumulated in float32


class CholQRWorkspace:
    """Reusable scratch for repeated same-shape factorizations.

    ``QRPlan`` holds one per thread: the mixed path's float32 Gram cast
    buffer (the only O(m n) intermediate the engine does not hand back
    to the caller) is allocated once and reused across ``execute`` calls.
    """

    def __init__(self) -> None:
        self._bufs: dict = {}

    def array(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


def _chol_r(G: np.ndarray, *, stage: str) -> np.ndarray:
    """Upper-triangular ``R`` with ``R^T R = G``, in float64.

    LAPACK-backed (``np.linalg.cholesky``, same vendor kernel family as
    the ``mode="raw"`` QR the executor uses); any failure — indefinite
    Gram, non-finite entries, zero pivot — becomes a
    :class:`CholeskyBreakdownError` tagged with the stage.
    """
    G64 = np.ascontiguousarray(G, dtype=np.float64)
    try:
        L = np.linalg.cholesky(G64)
    except np.linalg.LinAlgError:
        raise CholeskyBreakdownError(
            f"cholqr2: Gram matrix is not numerically positive definite "
            f"(Cholesky breakdown during {stage!r} pass)",
            stage=stage,
        ) from None
    d = np.diagonal(L)
    if not np.isfinite(L).all() or (d.size and not (d > 0.0).all()):
        raise CholeskyBreakdownError(
            f"cholqr2: non-finite or non-positive pivot during {stage!r} pass",
            stage=stage,
        )
    return np.ascontiguousarray(L.T)


def _column_scales(A: np.ndarray) -> np.ndarray:
    """Float64 column norms with overflow/underflow protection.

    The plain sum-of-squares accumulates in float64, which covers every
    float32 input; float64 data near 1e150 squares past the float64
    range, so those columns are re-measured under a max-abs pre-scale.
    Exactly zero columns get scale 1.0 (the Gram pivot then reports the
    rank deficiency as a breakdown instead of a 0/0).
    """
    s = np.sqrt(np.einsum("ij,ij->j", A, A, dtype=np.float64))
    if not np.isfinite(s).all() or (s.size and s.min() == 0.0):
        cmax = np.abs(A).max(axis=0).astype(np.float64) if A.shape[0] else None
        if cmax is not None:
            c = np.where(cmax > 0.0, cmax, 1.0)
            B = A / c[None, :]
            s = c * np.sqrt(np.einsum("ij,ij->j", B, B, dtype=np.float64))
        s[s == 0.0] = 1.0
        s[~np.isfinite(s)] = 1.0
    return s


def cholqr2_factor(
    A: np.ndarray,
    *,
    mixed: bool = False,
    workspace: CholQRWorkspace | None = None,
    check=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, CholQRInfo]:
    """The CholeskyQR2 engine: ``A = Q R`` for validated tall input.

    ``A`` must already be guard-validated (real float32/float64, 2-D,
    ``m >= n``); the public entry points and :mod:`repro.runtime` own
    that.  ``check(stage, value)`` is called with ``"condest_sample"``
    (cheap row-sampled estimate, tall inputs only), ``"condest"`` (the
    first Cholesky factor's diagonal ratio) and ``"orth1"``
    (``||Q1^T Q1 - I||_F``); it may raise to refuse the factorization —
    the engine never decides acceptability itself.  ``out`` is an
    optional C-contiguous ``(m, n)`` array of ``A``'s dtype, not
    overlapping ``A``, that the working matrix (and so Q) lives in.

    Returns ``(Q, R, info)`` with ``Q, R`` in ``A``'s dtype.
    """
    m, n = A.shape
    if m < n:
        raise ValueError("cholqr2_factor requires m >= n")
    dtype = A.dtype
    if n == 0 or m == 0:
        k = min(m, n)
        return (
            q_buffer(out, m, k, dtype, zeros=True),
            np.zeros((k, n), dtype=dtype),
            CholQRInfo(condest=1.0, orth1=0.0, fused=False, mixed=mixed),
        )

    if check is not None and m >= 16 * n:
        # Row-sampled condition precheck: ~8n deterministically strided
        # rows cost ~1% of the full Gram, so a wildly ill-conditioned
        # input is rejected before any O(mn) work, the column scales
        # included: the sample is equilibrated by its own column norms.
        # The Gram runs on the BLAS of the full Gram and the Householder
        # fallback: a NumPy GEMM here would leave NumPy's pool spinning
        # while they run.
        step = m // (8 * n)
        Ws = A[::step].astype(np.float64, copy=True)
        Ws /= _column_scales(Ws)[None, :]
        Gs = gram(Ws)
        try:
            ds = np.diagonal(_chol_r(Gs, stage="sample"))
            sample = float(ds.max() / ds.min())
        except CholeskyBreakdownError:
            sample = float("inf")
        check("condest_sample", sample)

    # -- equilibrate: W = A diag(1/s), ||W[:, j]|| ~= 1 --------------------
    s = _column_scales(A)
    s_dt = s.astype(dtype, copy=False)
    W = q_buffer(out, m, n, dtype)  # becomes Q in place
    np.divide(A, s_dt[None, :], out=W)

    # -- pass 1: G1 = W^T W, R1 = chol(G1) ---------------------------------
    if mixed and dtype == np.float64:
        cast = None
        if workspace is not None:
            cast = workspace.array("gram32", (m, n), np.float32)
            np.copyto(cast, W)
        G1 = gram(cast if cast is not None else W, dtype=np.float32)
    else:
        mixed = False  # float32 input: the Gram is already single precision
        G1 = gram(W)
    try:
        R1 = _chol_r(G1, stage="gram")
    except CholeskyBreakdownError as exc:
        exc.condest = float("inf")
        raise
    d1 = np.diagonal(R1)
    condest = float(d1.max() / d1.min())
    if check is not None:
        check("condest", condest)

    X1 = tri_inv_upper(R1)  # float64 upper triangular

    fused = not mixed and condest <= FUSED_COND_LIMIT
    if fused:
        # -- fused pass 2: all small n x n algebra, one big trmm -----------
        # G2 = R1^{-T} (W^T W) R1^{-1} = Q1^T Q1 exactly, without the
        # second syrk over m rows.
        G1_64 = np.ascontiguousarray(G1, dtype=np.float64)
        G2 = X1.T @ G1_64 @ X1
        orth1 = float(np.linalg.norm(G2 - np.eye(n), "fro"))
        if check is not None:
            check("orth1", orth1)
        try:
            R2 = _chol_r(G2, stage="reorth")
        except CholeskyBreakdownError as exc:
            exc.condest = condest
            raise
        Xc = np.ascontiguousarray(X1 @ tri_inv_upper(R2), dtype=dtype)
        trmm_right_inplace(W, Xc)  # W <- W (R1^{-1} R2^{-1}) = Q
    else:
        # -- true two-pass: reorthogonalize through a second full Gram -----
        trmm_right_inplace(W, np.ascontiguousarray(X1, dtype=dtype))  # Q1
        G2 = gram(W, dtype=dtype)  # float64 reorthogonalization for mixed
        G2_64 = np.ascontiguousarray(G2, dtype=np.float64)
        orth1 = float(np.linalg.norm(G2_64 - np.eye(n), "fro"))
        if check is not None:
            check("orth1", orth1)
        try:
            R2 = _chol_r(G2_64, stage="reorth")
        except CholeskyBreakdownError as exc:
            exc.condest = condest
            raise
        trmm_right_inplace(W, np.ascontiguousarray(tri_inv_upper(R2), dtype=dtype))

    # A = W diag(s) and W = Q R2 R1, so R = (R2 R1) diag(s).
    R = np.ascontiguousarray((R2 @ R1) * s[None, :], dtype=dtype)
    return W, R, CholQRInfo(condest=condest, orth1=orth1, fused=fused, mixed=mixed)


def cholesky_qr(A: np.ndarray, *, nonfinite: str = "raise") -> tuple[np.ndarray, np.ndarray]:
    """QR via ``A^T A = R^T R``; ``Q = A R^{-1}`` (single pass).

    Communication-optimal (one pass over A) but squares the condition
    number — kept as the stability-story baseline.  Raises
    :class:`repro.core.triangular.SingularTriangularError` when the Gram
    matrix is not numerically positive definite.  Float32 input stays
    float32 (the Gram accumulates in the input precision, which is the
    point of the demo).
    """
    from repro.verify.guards import validate_matrix

    A = validate_matrix(A, where="cholesky_qr", nonfinite=nonfinite)
    m, n = A.shape
    if m < n:
        raise ValueError("cholesky_qr requires m >= n")
    G = gram(np.ascontiguousarray(A))
    L = cholesky(G)  # reference pivot-by-pivot factor: raises on breakdown
    R = np.ascontiguousarray(L.T, dtype=A.dtype)
    Q = np.array(A, dtype=A.dtype, order="C", copy=True)
    trsm_right_inplace(Q, R)  # Q = A R^{-1}, in place on the copy
    return Q, R


def cholesky_qr2(A: np.ndarray, *, nonfinite: str = "raise") -> tuple[np.ndarray, np.ndarray]:
    """CholeskyQR2: run Cholesky QR twice and merge the R factors."""
    Q1, R1 = cholesky_qr(A, nonfinite=nonfinite)
    Q, R2 = cholesky_qr(Q1, nonfinite=nonfinite)
    return Q, np.ascontiguousarray((R2 @ R1), dtype=Q.dtype)
