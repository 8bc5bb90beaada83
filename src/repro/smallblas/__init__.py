"""Batched small dense kernels (the "batched LAPACK" the paper hand-rolled).

:mod:`.batched` holds the seed einsum kernels (the reference
implementations); :mod:`.wy` holds the GEMM-based compact-WY kernels the
batched execution path runs on; :mod:`.gram` holds the BLAS3 Gram /
triangular-multiply kernels behind the CholeskyQR2 fast paths.
"""

from .gram import (
    HAVE_BLAS3,
    gram,
    tri_inv_upper,
    trmm_right_inplace,
    trsm_right_inplace,
)
from .batched import (
    batched_apply_blocked,
    batched_apply_q,
    batched_apply_qt,
    batched_form_q,
    batched_geqr2,
    batched_house,
    batched_larft,
)
from .wy import apply_wy, extract_v, geqr2_blocked, larft

__all__ = [
    "batched_apply_blocked",
    "batched_apply_q",
    "batched_apply_qt",
    "batched_form_q",
    "batched_geqr2",
    "batched_house",
    "batched_larft",
    "apply_wy",
    "extract_v",
    "geqr2_blocked",
    "larft",
    "HAVE_BLAS3",
    "gram",
    "tri_inv_upper",
    "trmm_right_inplace",
    "trsm_right_inplace",
]
