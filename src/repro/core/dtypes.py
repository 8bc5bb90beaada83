"""Floating-point dtype handling for the core numerics.

The paper computes in single precision throughout ("Everything here is
done using single-precision, which is adequate for our video
application", Section IV).  The core routines therefore preserve
``float32`` inputs end to end, while defaulting everything else
(float64, integers, lists) to double precision.

Complex input is rejected here, at the normalization layer: the
Householder kernels are real-arithmetic only, and the historical
behaviour — ``astype`` truncating the imaginary part with nothing but a
``ComplexWarning`` — silently corrupted every downstream factor.  See
:mod:`repro.verify.guards` for the full input-validation policy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["working_dtype", "as_float_array", "eps_for", "q_buffer"]


def working_dtype(*arrays: np.ndarray) -> np.dtype:
    """float32 iff every input is float32; float64 otherwise."""
    if arrays and all(np.asarray(a).dtype == np.float32 for a in arrays):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def as_float_array(A, copy: bool = False) -> np.ndarray:
    """Coerce to the working float dtype, preserving float32 inputs.

    Raises:
        TypeError: for complex input — truncating the imaginary part
            would silently corrupt the factorization.
    """
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise TypeError(
            "complex input is not supported: the CAQR/TSQR kernels are "
            "real-arithmetic only, and casting would discard the imaginary part"
        )
    dt = working_dtype(A)
    if copy:
        return np.array(A, dtype=dt, copy=True)
    return A if A.dtype == dt else A.astype(dt)


def q_buffer(out, m: int, k: int, dtype, *, zeros: bool = False) -> np.ndarray:
    """The array an explicit thin ``m x k`` Q is formed in.

    ``out=None`` allocates one (zero-filled with ``zeros``).  A caller's
    ``out`` must be a writeable C-contiguous ``(m, k)`` array of
    ``dtype``: Q is written through it with the strides a new array
    would have, so its bits do not depend on where it lands.  It is
    checked, zero-filled with ``zeros``, and returned.

    Raises:
        ValueError: ``out`` has another shape, dtype or layout, or is
            read-only.
    """
    dtype = np.dtype(dtype)
    if out is None:
        return np.zeros((m, k), dtype=dtype) if zeros else np.empty((m, k), dtype=dtype)
    if not isinstance(out, np.ndarray):
        raise ValueError(f"out must be a NumPy array, got {type(out).__name__}")
    if out.shape != (m, k):
        raise ValueError(f"out has shape {out.shape}; Q is ({m}, {k})")
    if out.dtype != dtype:
        raise ValueError(f"out has dtype {out.dtype}; Q is {dtype}")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if not out.flags.writeable:
        raise ValueError("out is read-only")
    if zeros:
        out.fill(0)
    return out


def eps_for(A: np.ndarray) -> float:
    """Machine epsilon of the array's working precision."""
    return float(np.finfo(working_dtype(np.asarray(A))).eps)
