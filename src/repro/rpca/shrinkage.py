"""Scalar shrinkage (soft thresholding) — the sparsity operator of Robust PCA.

"A shrinkage operation (pushing the values of the matrix towards zero) is
done on S0 to enforce sparsity" (Section VI-C).  This is the proximal
operator of the l1 norm.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shrink", "shrink_into"]


def shrink(X: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise soft threshold: ``sign(x) * max(|x| - tau, 0)``.

    Computed in one output buffer (``|x|``, minus ``tau``, clamped at
    zero, then given the sign of ``x``); ``X`` is not modified.  A
    ``-0.0`` entry, or a negative one shrunk to zero, yields ``-0.0``.
    """
    if tau < 0:
        raise ValueError("shrinkage threshold must be non-negative")
    X = np.asarray(X, dtype=float)
    return shrink_into(X, tau, np.empty_like(X))  # an array even for 0-d X


def shrink_into(X: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """:func:`shrink` of the float array ``X`` written into ``out``.

    The same four ufuncs in the same order, so the result is bit for bit
    :func:`shrink`'s.  ``out`` must not overlap ``X``; ``tau`` is not
    checked.
    """
    np.abs(X, out=out)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, X, out=out)
