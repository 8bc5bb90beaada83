"""Core numerics: the paper's primary contribution and its LAPACK substrate.

Everything here is implemented from scratch on NumPy element/matrix
operations: Householder reflectors and packed QR (``geqr2``/``geqrf``),
TSQR over configurable reduction trees, CAQR over a block grid, the
alternative QR algorithms of Section II (Givens, Gram-Schmidt, Cholesky
QR), a one-sided Jacobi SVD, the tall-skinny SVD-via-QR, and a QR-based
least-squares solver.
"""

from .blocked import blocked_qr, geqrf, larfb, larft, orgqr, ormqr
from .caqr import CAQRFactors, caqr, caqr_qr
from .cholesky_qr import cholesky_qr, cholesky_qr2
from .givens import givens_qr
from .gram_schmidt import cgs2, classical_gram_schmidt, modified_gram_schmidt
from .householder import geqr2, house, org2r, orm2r, qr_flops
from .jacobi_svd import jacobi_svd, svd_via_jacobi
from .randomized_svd import randomized_range_finder, randomized_svd
from .structured import structured_stack_qr
from .lstsq import lstsq_caqr, lstsq_tsqr
from .pivoted import PivotedQR, numerical_rank, qr_pivoted
from .tree import TREE_SHAPES, TreeSchedule, build_tree
from .triangular import cholesky, solve_lower, solve_upper
from .ts_svd import tall_skinny_svd
from .tsqr import TSQRFactors, row_blocks, tsqr, tsqr_qr
from .validation import (
    factorization_error,
    is_factorization_accurate,
    orthogonality_error,
    sign_canonical,
    triangularity_error,
)

__all__ = [
    "blocked_qr",
    "geqrf",
    "larfb",
    "larft",
    "orgqr",
    "ormqr",
    "CAQRFactors",
    "caqr",
    "caqr_qr",
    "cholesky_qr",
    "cholesky_qr2",
    "givens_qr",
    "cgs2",
    "classical_gram_schmidt",
    "modified_gram_schmidt",
    "geqr2",
    "house",
    "org2r",
    "orm2r",
    "qr_flops",
    "jacobi_svd",
    "svd_via_jacobi",
    "randomized_range_finder",
    "randomized_svd",
    "structured_stack_qr",
    "lstsq_caqr",
    "lstsq_tsqr",
    "PivotedQR",
    "numerical_rank",
    "qr_pivoted",
    "TREE_SHAPES",
    "TreeSchedule",
    "build_tree",
    "cholesky",
    "solve_lower",
    "solve_upper",
    "tall_skinny_svd",
    "TSQRFactors",
    "row_blocks",
    "tsqr",
    "tsqr_qr",
    "factorization_error",
    "is_factorization_accurate",
    "orthogonality_error",
    "sign_canonical",
    "triangularity_error",
]
