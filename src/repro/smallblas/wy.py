"""Compact-WY (BLAS3) batched kernels — the fast path of the real-time CAQR.

The seed library in :mod:`repro.smallblas.batched` vectorizes the small
QRs across a batch but formulates every contraction as ``np.einsum``,
which NumPy evaluates with its own C loop instead of BLAS.  At paper
scale (thousands of 64x16 blocks per panel) the batched matmuls below
run roughly an order of magnitude faster because ``np.matmul`` dispatches
each batch slice to a GEMM microkernel, and because the factor kernel
produces the ``V`` and ``T`` factors of ``Q = I - V T V^T``
as byproducts (LAPACK ``geqrt`` returns ``T`` itself for tall slices),
so trailing updates and repeated Q applications never rebuild them.

Everything here accepts strided views (e.g. a trailing-matrix slice
reshaped into ``(blocks, block_rows, width)`` without a copy) — GEMM
handles the leading-dimension strides natively, which is what lets the
level-0 update of :mod:`repro.core.tsqr` run with no gather/scatter
copies at all.  The reflectors are such a view too: the factor kernel
copies R out of LAPACK's packed output and writes ``V``'s unit-lower
pattern over the triangle R occupied (:func:`v_in_place`), so ``V`` is
read where LAPACK wrote it and no batched path ever copies it whole:
forming Q over the reflectors copies one block's ``V`` at a time.

The seed einsum kernels are kept untouched as the reference
implementations; these routines are tested against them block by block.

:func:`orgqr_wy` forms explicit Q blocks the way LAPACK ``orgqr`` does,
on SciPy's BLAS when it is importable: the OpenBLAS that ``geqrt`` just
factored on, rather than NumPy's separate build.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.dtypes import working_dtype

from .gram import _blas, _lapack

__all__ = [
    "GEQRT_MIN_ELEMS",
    "extract_v",
    "v_in_place",
    "larft",
    "apply_wy",
    "blas_name",
    "orgqr_wy",
    "takes_geqrt",
    "geqr2_blocked",
]

# One flat scratch allocation per dtype, grown to the high-water mark and
# reused by every apply_wy call.  The GEMM temporaries at paper scale are
# ~100 MB per trailing update; reusing one buffer instead of allocating
# fresh (page-faulting) memory each call is worth ~2x on a cold run.
# Thread-local so the serving worker, the one other thread the library
# starts, never shares (and corrupts) a caller's buffer.
_TLS = threading.local()

# Smallest slice (m * n elements, m >= n) factored by LAPACK geqrt rather
# than the stacked-QR gufunc plus larft.  Measured crossover on a 2-core
# Xeon (benchmarks/test_bench_smallblas.py::test_bench_geqrt_crossover):
# below 4096 elements one gufunc loop over the batch beats a geqrt call
# per slice (0.64-0.78x at the paper's 64x16 blocks), at 4096 the winner
# depends on the width, and from 8192 on geqrt wins at every measured
# shape (1.6-2.8x at TSQR's 3200x100 level-0 blocks).
GEQRT_MIN_ELEMS = 8192

# Bound on apply_wy's per-chunk GEMM temporaries, in elements (1 MiB of
# float64): small enough to stay cache-resident.
_CHUNK_ELEMS = 131072


def _scratch(count: int, dtype: np.dtype) -> np.ndarray:
    """Flat reusable buffer of at least ``count`` elements of ``dtype``."""
    work: dict[str, np.ndarray] | None = getattr(_TLS, "work", None)
    if work is None:
        work = _TLS.work = {}
    key = np.dtype(dtype).str
    buf = work.get(key)
    if buf is None or buf.size < count:
        buf = np.empty(max(count, 1), dtype=dtype)
        work[key] = buf
    return buf


def extract_v(VR: np.ndarray) -> np.ndarray:
    """Unit-lower-trapezoidal ``V`` from a packed ``(batch, m, n)`` stack: a copy.

    Equivalent to the reference ``_extract_v_batch`` but done with one
    boolean-mask pass instead of ``np.tril`` + diagonal fill per call.
    No batched path calls it; they read V in place (:func:`v_in_place`).
    """
    b, m, n = VR.shape
    k = min(m, n)
    V = np.where(np.tri(m, k, -1, dtype=bool), VR[:, :, :k], 0.0)
    idx = np.arange(k)
    V[:, idx, idx] = 1.0
    return V


def v_in_place(VR: np.ndarray) -> np.ndarray:
    """``V`` from a packed ``(batch, m, n)`` stack, as a view of it.

    Writes ``V``'s unit-lower pattern (ones on the diagonal, zeros above
    it) over the top ``k x k`` of each slice, where the packed layout
    holds R, and returns ``VR[:, :, :k]``: the same values as
    :func:`extract_v`, with the reflectors left where they were.  Copy
    R out first.
    """
    k = min(VR.shape[1], VR.shape[2])
    top = VR[:, :k, :k]
    top[:, ~np.tri(k, dtype=bool)] = 0.0
    idx = np.arange(k)
    top[:, idx, idx] = 1.0
    return VR[:, :, :k]


def larft(V: np.ndarray, tau: np.ndarray, VtV: np.ndarray | None = None) -> np.ndarray:
    """Block-reflector ``T`` (``slarft``) for a batch, via GEMM.

    The m-length contractions are hoisted into one batched GEMM
    ``S = V^T V``; the remaining recurrence works on k-sized data only::

        T[i, i] = tau_i
        T[:i, i] = -tau_i * T[:i, :i] @ S[:i, i]

    Args:
        V: ``(batch, m, k)`` unit-lower-trapezoidal reflectors.
        tau: ``(batch, k)`` coefficients.
        VtV: optional precomputed ``V^T V`` ``(batch, k, k)``.
    """
    b, m, k = V.shape
    if VtV is None:
        VtV = np.matmul(V.transpose(0, 2, 1), V)
    T = np.zeros((b, k, k), dtype=V.dtype)
    for i in range(k):
        t_i = tau[:, i]
        T[:, i, i] = t_i
        if i > 0:
            w = np.matmul(T[:, :i, :i], VtV[:, :i, i, None])
            T[:, :i, i] = -t_i[:, None] * w[:, :, 0]
    return T


def apply_wy(
    V: np.ndarray,
    T: np.ndarray,
    C: np.ndarray,
    transpose: bool = True,
) -> np.ndarray:
    """Apply ``Q`` / ``Q^T`` of ``Q = I - V T V^T`` to each tile, in place.

    ``C_b <- C_b - V_b (T_b' (V_b^T C_b))`` — three batched GEMMs and a
    subtraction.  ``C`` may be any strided ``(batch, m, w)`` view; the
    update writes through it, so callers can pass a reshaped trailing
    slice and skip gather/scatter entirely.  ``V`` may be strided too:
    the factor kernel's is a view of LAPACK's output, and ``matmul``
    hands its Fortran-ordered slices to BLAS with a transpose flag.

    The batch is processed in chunks whose temporaries hold at most
    :data:`_CHUNK_ELEMS` elements, carved out of the shared scratch
    buffer.  That keeps a chunk cache-resident, which at paper scale
    (few huge trailing updates) halves main-memory traffic versus three
    full-batch GEMMs with materialized intermediates.  Chunking splits
    the batch axis only — each slice's arithmetic is independent of the
    chunk and of the batch size, so results are bitwise identical for
    any batch.

    The bits *do* depend on the strides of each ``C`` slice: ``matmul``
    hands a slice's leading dimension and element stride to BLAS, and
    BLAS kernels sum in a different order for different layouts (with
    a one-column ``C``, a strided slice and a contiguous copy of it
    give different bits).  Callers that promise equal bits across two
    routes must hand every slice over with the same strides on both;
    :func:`repro.core.tsqr.apply_wy_plan` does that for any stack size.
    """
    Tm = T.transpose(0, 2, 1) if transpose else T
    b, m, k = V.shape
    w = C.shape[2]
    if V.dtype != C.dtype or k == 0 or w == 0:
        W = np.matmul(V.transpose(0, 2, 1), C)
        W = np.matmul(Tm, W)
        np.subtract(C, np.matmul(V, W), out=C)
        return C
    per_block = w * (2 * k + m)
    chunk = max(1, min(b, _CHUNK_ELEMS // max(1, per_block)))
    buf = _scratch(chunk * per_block, C.dtype)
    for s0 in range(0, b, chunk):
        s1 = min(s0 + chunk, b)
        cb = s1 - s0
        Vc = V[s0:s1]
        Cc = C[s0:s1]
        W1 = buf[: cb * k * w].reshape(cb, k, w)
        W2 = buf[cb * k * w : 2 * cb * k * w].reshape(cb, k, w)
        VW = buf[2 * cb * k * w : cb * per_block].reshape(cb, m, w)
        np.matmul(Vc.transpose(0, 2, 1), Cc, out=W1)
        np.matmul(Tm[s0:s1], W1, out=W2)
        np.matmul(Vc, W2, out=VW)
        np.subtract(Cc, VW, out=Cc)
    return C


def _gemm(dtype: np.dtype):
    """SciPy's BLAS ``gemm`` for ``dtype``, or ``None`` (run on NumPy)."""
    if _blas is None:
        return None
    return {np.float64: _blas.dgemm, np.float32: _blas.sgemm}.get(np.dtype(dtype).type)


def blas_name(dtype: np.dtype) -> str:
    """Which BLAS :func:`orgqr_wy` runs ``dtype`` on: ``"scipy"`` or ``"numpy"``."""
    return "numpy" if _gemm(dtype) is None else "scipy"


def orgqr_wy(V: np.ndarray, T: np.ndarray, C: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out_b = Q_b [C_b; 0]`` for ``Q_b = I - V_b T_b V_b^T``: orgqr's form.

    Applying Q to a block whose rows below ``r = C.shape[1]`` are zero
    needs only the top ``r`` rows of ``V`` in ``V^T [C; 0] = V_top^T C``,
    so each slice costs two small products and one ``h x k x w`` GEMM
    written straight into ``out``::

        out_b = -V_b (T_b (V_b,top^T C_b));  out_b[:r] += C_b

    LAPACK's ``orgqr`` forms Q this way, and Demmel et al. (arXiv
    0809.2407) form the explicit TSQR Q by applying the implicit Q to
    ``[I; 0]``.  With ``r = h`` it is the plain application ``Q C`` into
    a separate buffer.

    On SciPy's BLAS, ``gemm`` runs once per product per slice on
    Fortran-ordered operands, with transpose flags where the NumPy
    array is C-ordered (a C-ordered array is its own transpose in
    Fortran order).  A ``V`` slice from the factor kernel is a Fortran
    view of LAPACK's output and goes in as it is; only the small top
    ``r x kk`` block is copied, and the last GEMM writes ``out`` in
    place.  Without the binding (or for other dtypes) the same three
    products run as batched NumPy ``matmul``.

    Args:
        V: ``(batch, h, kk)`` unit-lower-trapezoidal reflectors, either
            slice order.
        T: ``(batch, kk, kk)`` upper-triangular block-reflector factors.
        C: ``(batch, r, w)`` top rows, ``r <= h``; never written.
        out: ``(batch, h, w)`` destination, fully overwritten; must not
            overlap ``C``.
    """
    r = C.shape[1]
    gemm = _gemm(V.dtype)
    if gemm is None or C.dtype != V.dtype or out.dtype != V.dtype or 0 in out.shape:
        W = np.matmul(T, np.matmul(V[:, :r].transpose(0, 2, 1), C))
        np.negative(W, out=W)
        np.matmul(V, W, out=out)
        out[:, :r] += C
        return out
    for i in range(V.shape[0]):
        Vi, Ci, Oi = V[i], C[i], out[i]
        # Fortran view: W^T = (V_top^T C)^T, (T W)^T = W^T T^T, out^T = -W^T V^T.
        top, t_top = _fortran(Vi[:r])
        W = gemm(1.0, Ci.T, top, trans_b=t_top)
        W = gemm(1.0, W, T[i].T)
        full, t_full = _fortran(Vi)
        got = gemm(-1.0, W, full, trans_b=1 - t_full, beta=0.0, c=Oi.T, overwrite_c=1)
        if not np.shares_memory(got, Oi):  # a strided out was copied
            Oi[:] = got.T
        Oi[:r] += Ci
    return out


def _fortran(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(b, t)`` with ``a = b`` (``t = 0``) or ``a = b^T`` (``t = 1``).

    ``b`` is Fortran-ordered whenever ``a`` is either order, so f2py
    hands it to BLAS without a copy.
    """
    if a.flags.c_contiguous and not a.flags.f_contiguous:
        return a.T, 1
    return a, 0


def takes_geqrt(m: int, n: int) -> bool:
    """Whether the slice kernel factors an ``m x n`` slice with ``geqrt``.

    Those slices can be factored in a caller's buffer
    (:func:`_factor_slices`'s ``out``); the others run the gufunc, which
    allocates its own.
    """
    return _lapack is not None and m >= n and m * n >= GEQRT_MIN_ELEMS


def _factor_slices(
    A: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-slice QR kernel behind every batched factor.

    A slice with ``m >= n`` and at least :data:`GEQRT_MIN_ELEMS` elements
    (:func:`takes_geqrt`) is factored in place by LAPACK's recursive
    compact-WY ``geqrt`` with ``nb = n``: one BLAS3 call per slice that
    also returns the whole ``T``, so ``tau = diag(T)`` and :func:`larft`
    never runs.  Smaller or wide slices go through the stacked-QR gufunc
    (``geqrf``) plus :func:`larft`.  The choice depends on the slice
    shape only, never on the batch size, and each slice is factored on
    its own, so stacking slices (TSQR blocks, serving requests) never
    changes their bits.

    LAPACK's packed output is the only storage of the reflectors: R is
    copied out and :func:`v_in_place` turns the rest into ``V``.  The
    ``geqrt`` slices are factored in a C-ordered ``(batch, n, m)`` array,
    or, given ``out`` (a C-contiguous array of ``A.size`` elements, read
    only for those slices), in ``out`` with that same layout, so the bits
    do not depend on where they land.  TSQR passes the rows of Q the
    slices' rows become, and forms Q over the reflectors.

    Returns ``(V, T, R, tau)``: the ``(batch, m, k)`` unit-lower-trapezoidal
    reflectors, a view of the packed output (each ``geqrt`` slice in
    Fortran order); ``T``; the ``(batch, k, n)`` upper-trapezoidal R; and
    the coefficients.
    """
    b, m, n = A.shape
    T = None
    if takes_geqrt(m, n):
        h = np.empty((b, n, m), dtype=A.dtype) if out is None else out.reshape(b, n, m)
        np.copyto(h.transpose(0, 2, 1), A)
        T = np.empty((b, n, n), dtype=A.dtype)
        geqrt = _lapack.dgeqrt if A.dtype == np.float64 else _lapack.sgeqrt
        for i in range(b):
            # h[i].T is the Fortran-order (m, n) slice: factored in place.
            _, T[i], _ = geqrt(n, h[i].T, overwrite_a=1)
        tau = T.diagonal(axis1=1, axis2=2).copy()
    else:
        h, tau = np.linalg.qr(A, mode="raw")
    VR = h.transpose(0, 2, 1)
    R = np.triu(VR[:, : min(m, n), :])
    V = v_in_place(VR)
    return V, larft(V, tau) if T is None else T, R, tau


def geqr2_blocked(
    A: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched QR returning the compact-WY factors as byproducts.

    Casts to the working dtype (float32 or float64) and factors every
    slice with the shared slice kernel (:func:`_factor_slices`):
    LAPACK's recursive compact-WY ``geqrt`` for slices with ``m >= n`` and at least
    :data:`GEQRT_MIN_ELEMS` elements (TSQR's tall level-0 blocks and
    the stacked-R tree nodes of wide panels), the stacked-QR gufunc
    (``geqrf``) plus :func:`larft` below that (the paper's 64x16
    blocks).  Both use the reflector convention of the reference
    ``batched_house`` (``beta = -sign(alpha)|x|``, ``tau = 0`` for
    already-reduced columns).  The input is never mutated.

    Returns:
        ``(V, T, R, tau)``: the ``(batch, m, k)`` unit-lower-trapezoidal
        reflectors (a view of LAPACK's packed output), the ``(batch, k,
        k)`` block-reflector T with ``Q_b = I - V_b T_b V_b^T``, the
        ``(batch, k, n)`` upper-trapezoidal R and the coefficients.
        ``V`` below its diagonal and ``R`` on and above it are the
        packed factor that :func:`repro.smallblas.batched.batched_geqr2`
        returns (equal up to roundoff).
    """
    A = np.asarray(A)
    if A.ndim != 3:
        raise ValueError("A must be a (batch, m, n) stack")
    return _factor_slices(np.asarray(A, dtype=working_dtype(A)))
