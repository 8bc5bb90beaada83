"""Input guard rails for every public factorization entry point.

One validation policy, enforced in one place (this module) and wired
through ``caqr`` / ``caqr_qr``, ``tsqr`` / ``tsqr_qr``,
``caqr_gpu_factor``, ``QRPlan.execute``, ``QRDispatcher.qr``,
``randomized_svd`` / ``randomized_range_finder``, ``AdaptiveSVT`` and
the numeric baselines (``blocked_qr``, ``cholesky_qr``, ``cgs2``):

* **Complex dtypes are rejected** with ``TypeError``.  The kernels are
  real-arithmetic only; the historical behaviour (truncate the imaginary
  part under a ``ComplexWarning``) produced a plausible-looking Q/R built
  from corrupted data.
* **Non-finite entries are detected** under a configurable policy:
  ``"raise"`` (the default) reports the offending entry with a
  ``ValueError``; ``"propagate"`` opts out for callers — benchmarks,
  failure-injection studies — that knowingly feed non-finite data.
* **Dtype and layout are normalized**: Python lists, integers and booleans
  become float64, float32 is preserved end to end (the paper computes in
  single precision), every other real float widens to float64.  Strided
  and Fortran-order views are accepted everywhere; the layer that needs a
  contiguous buffer makes its own copy, so no entry point ever mutates a
  caller's array through an aliased view.

Internal calls between entry points (e.g. ``caqr`` factoring each panel
through ``tsqr``) pass ``nonfinite="propagate"`` after validating once at
the public boundary, so inputs are scanned exactly once per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs import tracer as _obs

__all__ = [
    "NONFINITE_POLICIES",
    "GuardError",
    "ValidationCounter",
    "count_validations",
    "validate_matrix",
    "validate_nonfinite_policy",
    "validate_stream_chunk",
]

NONFINITE_POLICIES = ("raise", "propagate")


@dataclass
class ValidationCounter:
    """Counts guard-layer activity while a :func:`count_validations` scope
    is open.

    ``validations`` counts :func:`validate_matrix` entries; ``scans``
    counts actual non-finite sweeps over the data (``"raise"`` mode
    only).  The single-scan contract — one public entry point, one scan
    per matrix — is asserted in tests through this hook.
    """

    validations: int = 0
    scans: int = 0


_COUNTERS: list[ValidationCounter] = []


@contextmanager
def count_validations():
    """Context manager yielding a live :class:`ValidationCounter`."""
    counter = ValidationCounter()
    _COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _COUNTERS.remove(counter)


class GuardError(ValueError):
    """A guard-policy misconfiguration (not a data problem)."""


def validate_nonfinite_policy(nonfinite: str, where: str = "validate_matrix") -> str:
    """Check that ``nonfinite`` names a known policy; return it."""
    if nonfinite not in NONFINITE_POLICIES:
        raise GuardError(
            f"{where}: nonfinite policy must be one of {NONFINITE_POLICIES}, "
            f"got {nonfinite!r}"
        )
    return nonfinite


# Bytes of input the non-finite scan reads per chunk: its boolean mask
# is an eighth of that (of float64) and stays in cache, where a
# whole-matrix mask would be 0.125 x A.nbytes.
SCAN_CHUNK_BYTES = 256 * 1024


def _row_chunks(A: np.ndarray) -> range:
    """Row starts of the scan's chunks of ``SCAN_CHUNK_BYTES`` of ``A``."""
    return range(0, A.shape[0], max(1, SCAN_CHUNK_BYTES // (A.shape[1] * A.itemsize)))


def _raise_on_nonfinite(A: np.ndarray, where: str) -> None:
    for counter in _COUNTERS:
        counter.scans += 1
    if A.size == 0:
        return
    # Chunks follow memory order: an F-ordered array is scanned as its
    # C-ordered transpose, by columns, where its row chunks would be
    # strided.  C-ordered and strided arrays are scanned by rows.
    S = A.T if A.flags.f_contiguous and not A.flags.c_contiguous else A
    starts = _row_chunks(S)
    rows = starts.step
    # The scan is the guard layer's whole O(mn) cost — span it so traces
    # show where (and how often) inputs are being re-scanned.
    with _obs.span("guard.scan", cat="guard", where=where):
        _obs.counters(guard_scans=1, guard_scan_bytes=int(A.nbytes))
        mask = np.empty((min(rows, S.shape[0]), S.shape[1]), dtype=bool)
        ok = all(
            np.isfinite(S[r0 : r0 + rows], out=mask[: min(rows, S.shape[0] - r0)]).all()
            for r0 in starts
        )
    if ok:
        return
    # Only on failure: count every non-finite entry and find the first
    # in row-major order, by row chunks whatever the layout.
    count, first = 0, None
    starts = _row_chunks(A)
    for r0 in starts:
        bad = np.argwhere(~np.isfinite(A[r0 : r0 + starts.step]))
        if first is None and len(bad):
            first = (r0 + int(bad[0, 0]), int(bad[0, 1]))
        count += len(bad)
    kind = "nan" if np.isnan(A[first]) else "inf"
    raise ValueError(
        f"{where}: input contains {count} non-finite entr"
        f"{'y' if count == 1 else 'ies'}; first is {kind} at index {first}. "
        "Pass nonfinite='propagate' to skip this check."
    )


def validate_matrix(
    A,
    where: str,
    nonfinite: str = "raise",
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Validate and normalize one matrix input at a public entry point.

    Args:
        A: the caller's matrix (array-like).
        where: the entry point's name — prefixed to every diagnostic so a
            failure names the API the bad data reached, not an internal.
        nonfinite: ``"raise"`` (default) or ``"propagate"``.
        dtype: force this floating dtype instead of the default
            float32-preserving promotion (the SVD-based paths compute in
            float64 regardless of input precision).

    Returns:
        The validated array in its working float dtype.  No copy is made
        when the input already has that dtype; layout (C/F/strided) is
        preserved — downstream code copies where it needs contiguity.

    Raises:
        TypeError: complex input.
        ValueError: non-2-D input, or non-finite entries under ``"raise"``.
        GuardError: unknown ``nonfinite`` policy.
    """
    # Lazy: repro.core's modules import this guard layer at definition
    # time, so importing repro.core here at module level would cycle.
    from repro.core.dtypes import as_float_array

    for counter in _COUNTERS:
        counter.validations += 1
    validate_nonfinite_policy(nonfinite, where)
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise TypeError(f"{where}: complex input is not supported")
    if A.ndim != 2:
        raise ValueError(f"{where}: input must be 2-D, got {A.ndim}-D shape {A.shape}")
    if dtype is not None:
        out = np.asarray(A, dtype=np.dtype(dtype))
    else:
        out = as_float_array(A)
    if nonfinite == "raise":
        _raise_on_nonfinite(out, where)
    return out


def validate_stream_chunk(
    chunk,
    where: str,
    n_cols: int | None = None,
    dtype: np.dtype | None = None,
    nonfinite: str = "raise",
) -> np.ndarray:
    """Validate one chunk of a row stream against the stream's contract.

    A streamed factorization sees its input one chunk at a time, so the
    per-matrix checks of :func:`validate_matrix` are not enough: every
    chunk must also *agree with the chunks before it*.  This guard adds
    the two stream-level rejections on top of the usual matrix checks:

    * **column drift** — a chunk whose width differs from the stream's
      established ``n_cols`` raises ``ValueError`` (the running R would
      silently be the factorization of garbage);
    * **dtype mixing** — a chunk whose working float dtype differs from
      the stream's established ``dtype`` raises ``TypeError``.  Folding
      a float32 chunk into a float64 carry (or vice versa) would change
      the arithmetic mid-stream, breaking the streamed-equals-one-shot
      contract the fuzz harness pins.

    Args:
        chunk: the caller's row block (array-like, 2-D).
        where: the entry point's name for diagnostics.
        n_cols: the stream's established column count (``None`` for the
            first chunk, which sets it).
        dtype: the stream's established working dtype (``None`` for the
            first chunk).
        nonfinite: per-chunk non-finite policy, as in
            :func:`validate_matrix`.

    Returns:
        The validated chunk in its working float dtype.
    """
    out = validate_matrix(chunk, where=where, nonfinite=nonfinite)
    if n_cols is not None and out.shape[1] != n_cols:
        raise ValueError(
            f"{where}: chunk has {out.shape[1]} columns but the stream "
            f"established {n_cols}; every chunk of a stream must share "
            f"one column count"
        )
    if dtype is not None and out.dtype != np.dtype(dtype):
        raise TypeError(
            f"{where}: chunk dtype {out.dtype} differs from the stream's "
            f"established {np.dtype(dtype)}; dtype-mixed chunks would "
            f"change the arithmetic mid-stream — cast the stream to one "
            f"dtype at the source"
        )
    return out
