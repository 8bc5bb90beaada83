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

* column equilibration read off the Gram's diagonal: the Gram of A as
  given yields the column scales ``s``, the n x n Gram is equilibrated
  (``G / s s^T``) and ``diag(1/s)`` folds into the triangular factor the
  ``trmm`` applies, so no m x n pass measures or divides the columns.
  A diagonal that is non-finite or below ``m * tiny / eps`` in the
  Gram's dtype (squares that overflowed or underflowed: huge/tiny
  inputs, or a float32 cast that overflows) equilibrates A first, by
  float64 column norms; either way ``s`` folds back into R;
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
  instead of surfacing a bare linear-algebra error;
* obs spans ``cholqr.sample``, ``cholqr.gram`` and ``cholqr.form_q``
  (the second pass and the triangular multiplies), and the
  ``cholqr_stream_bytes`` counter of every pass over an m x n operand:
  5 x ``A.nbytes`` for an in-range float64 input on the fused branch
  (copy, Gram, ``trmm``).

The engine makes **no** accept/reject decisions itself: the ``check``
callback (owned by :class:`repro.runtime.cholqr.CholQRGuard`) sees the
condition estimates and the post-hoc ``||Q1^T Q1 - I||`` and may raise
to stop the factorization.  ``tools/lint_layering.py`` enforces that
split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import tracer as _obs
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

    The engine's equilibrate-first route, for inputs whose Gram diagonal
    is out of range; it counts its m x n passes.  The plain
    sum-of-squares accumulates in float64, which covers every float32
    input; float64 data near 1e160 squares past the float64 range (or
    near 1e-170 to zero), so those columns are re-measured under a
    max-abs pre-scale.
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
        # max-abs pass (|A| written and read back), A / c, its squares
        _obs.counters(cholqr_stream_bytes=6 * A.nbytes)
    _obs.counters(cholqr_stream_bytes=A.nbytes)  # the sum of squares
    return s


def _equilibrate(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(G / s s^T, s)`` in float64, ``s`` the square roots of ``G``'s
    diagonal: the Gram of the column-equilibrated matrix, without
    touching the matrix.  A zero column keeps scale 1.0, so its zero
    pivot reports the rank deficiency as a breakdown."""
    s = np.sqrt(np.diagonal(G).astype(np.float64))
    s[s == 0.0] = 1.0
    return G / np.outer(s, s), s


def _gram_pass(W: np.ndarray, dtype, cast: np.ndarray | None = None) -> np.ndarray:
    """``gram(W)`` accumulated in ``dtype``, its m x n streams counted.

    The mixed path accumulates a float32 Gram of float64 ``W`` from
    ``cast``, a float32 buffer of ``W``'s shape, refilled here.
    """
    if cast is not None:
        with np.errstate(over="ignore"):  # an overflow shows as an inf diagonal
            np.copyto(cast, W)
        _obs.counters(cholqr_stream_bytes=W.nbytes + cast.nbytes)
        W = cast
    _obs.counters(cholqr_stream_bytes=W.nbytes)
    return gram(W, dtype=dtype)


def _scaled_gram(W: np.ndarray, dtype, cast: np.ndarray | None = None):
    """Pass 1's equilibrated Gram and column scales: ``(G, s, prescaled)``.

    ``W`` holds a copy of the input.  Its own Gram gives ``s`` and the
    equilibrated Gram, and ``W`` is left as it is (``prescaled`` False:
    the caller folds ``diag(1/s)`` into its triangular multiply).  A
    diagonal that is non-finite, or below ``m * tiny / eps`` in the
    Gram's dtype, holds squares that overflowed or underflowed; then
    ``W`` is divided by its float64 column norms first and its Gram
    taken again (``prescaled`` True).
    """
    G = _gram_pass(W, dtype, cast)
    d = np.diagonal(G)
    fi = np.finfo(G.dtype)
    if np.isfinite(d).all() and d.min() >= W.shape[0] * float(fi.tiny) / float(fi.eps):
        G, s = _equilibrate(G)
        return G, s, False
    s = _column_scales(W)
    W /= s.astype(W.dtype, copy=False)[None, :]
    _obs.counters(cholqr_stream_bytes=2 * W.nbytes)
    return _gram_pass(W, dtype, cast), s, True


def _trmm_pass(W: np.ndarray, X: np.ndarray) -> None:
    """``W <- W X`` in place, its m x n streams counted."""
    trmm_right_inplace(W, np.ascontiguousarray(X, dtype=W.dtype))
    _obs.counters(cholqr_stream_bytes=2 * W.nbytes)


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
        # input is rejected before any O(mn) work.  The sample is
        # scaled by its columns' max-abs, so its float64 Gram cannot
        # overflow or underflow, and equilibrated through that Gram's
        # diagonal.  The Gram runs on the BLAS of the full Gram and the
        # Householder fallback: a NumPy GEMM here would leave NumPy's
        # pool spinning while they run.
        with _obs.span("cholqr.sample", cat="cholqr"):
            step = m // (8 * n)
            Ws = A[::step].astype(np.float64, copy=True)
            c = np.abs(Ws).max(axis=0)
            Ws /= np.where(c > 0.0, c, 1.0)[None, :]
            Gs, _ = _equilibrate(gram(Ws))
            try:
                ds = np.diagonal(_chol_r(Gs, stage="sample"))
                sample = float(ds.max() / ds.min())
            except CholeskyBreakdownError:
                sample = float("inf")
        check("condest_sample", sample)

    # -- pass 1: W = A (becomes Q in place), G1 = Gram of W diag(1/s) ----
    mixed = mixed and dtype == np.float64  # float32 data: single-precision Gram already
    cast = None
    if mixed:  # the float32 Gram is accumulated from a cast buffer
        cast = (workspace or CholQRWorkspace()).array("gram32", (m, n), np.float32)
    W = q_buffer(out, m, n, dtype)
    with _obs.span("cholqr.gram", cat="cholqr", mixed=mixed) as span:
        np.copyto(W, A)
        _obs.counters(cholqr_stream_bytes=A.nbytes + W.nbytes)
        G1, s, prescaled = _scaled_gram(W, np.float32 if mixed else dtype, cast)
        if isinstance(span, _obs.Span):  # a live span (tracing enabled)
            span.args["prescaled"] = prescaled
    del cast  # without a workspace, freed before the second pass
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
    # W still holds A unless it was prescaled: A diag(1/s) R1^{-1} is
    # one triangular multiply by diag(1/s) R1^{-1}.
    unscale = 1.0 if prescaled else 1.0 / s[:, None]

    fused = not mixed and condest <= FUSED_COND_LIMIT
    with _obs.span("cholqr.form_q", cat="cholqr", fused=fused):
        if fused:
            # -- fused pass 2: all small n x n algebra, one big trmm -------
            # G2 = R1^{-T} G1 R1^{-1} = Q1^T Q1 exactly, without the
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
            _trmm_pass(W, unscale * (X1 @ tri_inv_upper(R2)))  # W <- Q
        else:
            # -- true two-pass: reorthogonalize through a second full Gram -
            _trmm_pass(W, unscale * X1)  # Q1
            G2 = _gram_pass(W, dtype)  # float64 reorthogonalization for mixed
            G2_64 = np.ascontiguousarray(G2, dtype=np.float64)
            orth1 = float(np.linalg.norm(G2_64 - np.eye(n), "fro"))
            if check is not None:
                check("orth1", orth1)
            try:
                R2 = _chol_r(G2_64, stage="reorth")
            except CholeskyBreakdownError as exc:
                exc.condest = condest
                raise
            _trmm_pass(W, tri_inv_upper(R2))

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
