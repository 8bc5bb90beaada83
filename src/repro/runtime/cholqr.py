"""Condition guard and tree fallback for the CholeskyQR2 fast paths.

The engine (:func:`repro.core.cholqr2_factor`) is pure numerics; *this*
module owns every accept/reject decision, which is the layering rule
``tools/lint_layering.py`` enforces: condition-estimate thresholds and
fallback choices may only be constructed inside ``repro.runtime``.

Three paths share the machinery:

* ``path="cholqr2"`` / ``path="cholqr2_mixed"`` — the guard *refuses*
  inputs past the condition limit by raising
  :class:`~repro.core.cholesky_qr.CholeskyBreakdownError` (explicitly
  asking for the cheap path means you want to know when it cannot
  deliver <1e-14 orthogonality);
* ``path="auto"`` — the same checks instead trigger a transparent
  fallback to the ``lookahead`` tree, including on Cholesky breakdown
  mid-factorization, so ``auto`` never raises on ill-conditioned input.

Guard checks, in execution order (all computed by the engine, judged
here):

1. ``condest_sample`` — a row-sampled Gram condition estimate (~1% of
   the full Gram cost) so wildly ill-conditioned tall inputs bail
   before any O(mn) work;
2. ``condest`` — max/min diagonal ratio of the first Cholesky factor;
   the limit is dtype-aware: CholeskyQR2 squares the condition number
   into the Gram matrix, so a float64 Gram tolerates ``~1/(8 sqrt(eps))
   ~ 4e6`` while a float32 Gram (the mixed path, or float32 data) caps
   near ``0.5/sqrt(eps32) ~ 1400``;
3. ``orth1`` — post-hoc ``||Q1^T Q1 - I||_F`` after the first pass; the
   second pass converges only from ``orth1 < 1``, so anything past
   ``ORTH1_LIMIT`` cannot be repaired by reorthogonalization.

Fallbacks are observable: each one emits an ``obs`` span + counter and
increments every open :func:`count_fallbacks` scope (the fuzz harness
uses this to prove ``auto`` really fell back on adversarial input and
never on Gaussian input).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs import tracer as _obs

from .policy import ExecutionPolicy

__all__ = [
    "ORTH1_LIMIT",
    "CholQRFactors",
    "CholQRGuard",
    "FallbackCounter",
    "count_fallbacks",
    "run_cholqr",
]

# The reorthogonalization pass contracts the orthogonality error only
# while ||Q1^T Q1 - I|| < 1; refuse past 0.5 so the second pass always
# lands at machine precision with margin.
ORTH1_LIMIT = 0.5


class _FallbackRequested(Exception):
    """Internal control flow: guard refused, policy says take the tree.

    Never escapes :func:`run_cholqr`.
    """

    def __init__(self, stage: str, value: float, limit: float):
        super().__init__(stage)
        self.stage = stage
        self.value = value
        self.limit = limit


@dataclass(eq=False)  # identity equality: scopes nest, list.remove must not
class FallbackCounter:
    """Counts guard-triggered tree fallbacks inside a scope."""

    fallbacks: int = 0
    stages: tuple = ()

    def record(self, stage: str) -> None:
        self.fallbacks += 1
        self.stages = self.stages + (stage,)


_COUNTERS: list[FallbackCounter] = []
_COUNTERS_LOCK = threading.Lock()


@contextmanager
def count_fallbacks():
    """Context manager yielding a live :class:`FallbackCounter`."""
    counter = FallbackCounter()
    with _COUNTERS_LOCK:
        _COUNTERS.append(counter)
    try:
        yield counter
    finally:
        with _COUNTERS_LOCK:
            _COUNTERS.remove(counter)


def _record_fallback(stage: str) -> None:
    with _COUNTERS_LOCK:
        for counter in _COUNTERS:
            counter.record(stage)


@dataclass(frozen=True)
class CholQRGuard:
    """The accept/reject policy for one CholeskyQR2 factorization.

    ``condition_limit`` bounds the Gram-diagonal condition estimate;
    ``orth_limit`` bounds the post-hoc first-pass orthogonality error;
    ``fallback`` selects the disposition — ``False`` raises
    :class:`CholeskyBreakdownError` (explicit cholqr paths), ``True``
    raises the internal fallback signal (``auto``).
    """

    condition_limit: float
    orth_limit: float = ORTH1_LIMIT
    fallback: bool = False

    @classmethod
    def for_policy(cls, policy: ExecutionPolicy, dtype) -> "CholQRGuard":
        """Dtype- and path-aware guard thresholds.

        The first-pass Gram squares ``cond(A)``; it must stay resolvable
        in the *Gram accumulation* precision, which is float32 when the
        data is float32 or the path is ``cholqr2_mixed``.
        """
        dt = np.dtype(dtype)
        gram_is_f32 = dt == np.dtype(np.float32) or (
            policy.spec.mixed and dt == np.dtype(np.float64)
        )
        if policy.condition_limit is not None:
            limit = float(policy.condition_limit)
        elif gram_is_f32:
            # Above ~0.5/sqrt(eps32) the float32 Gram is numerically
            # indefinite; the 0.5 margin also clears the condition-number
            # tail of small square Gaussian matrices, keeping `auto` off
            # the tree for every well-conditioned kind.
            limit = 0.5 / math.sqrt(float(np.finfo(np.float32).eps))
        else:
            limit = 1.0 / (8.0 * math.sqrt(float(np.finfo(np.float64).eps)))
        return cls(condition_limit=limit, fallback=policy.spec.fallback)

    def _refuse(self, stage: str, value: float, limit: float):
        if self.fallback:
            raise _FallbackRequested(stage, value, limit)
        from repro.core.cholesky_qr import CholeskyBreakdownError

        raise CholeskyBreakdownError(
            f"cholqr2 guard: {stage} = {value:.3g} exceeds the limit {limit:.3g} "
            f"(input too ill-conditioned for the CholeskyQR2 fast path; use "
            f"path='auto' or path='batched')",
            stage=stage,
            condest=value,
        )

    def __call__(self, stage: str, value: float) -> None:
        """The engine's ``check`` hook; may raise to stop the run."""
        if stage in ("condest_sample", "condest"):
            if not value <= self.condition_limit:  # NaN/inf also refuse
                self._refuse(stage, value, self.condition_limit)
        elif stage == "orth1":
            if not value <= self.orth_limit:
                self._refuse(stage, value, self.orth_limit)


class CholQRFactors:
    """Explicit-Q factors from a CholeskyQR2 run (or its tree fallback).

    Shares ``R`` and ``form_q(out=None)`` with the Householder factor
    objects.  Q is already explicit, so ``form_q()`` is free, and the
    apply methods are plain GEMMs with the *thin* factor, unlike
    :class:`~repro.core.caqr.CAQRFactors`'s in-place ones:
    ``apply_qt`` takes ``m`` rows and returns a new ``k``-row
    coefficient block, and ``apply_q`` takes ``k`` rows and returns a
    new ``m``-row one (``k = min(m, n)``), which is what the
    least-squares and randomized-SVD pipelines consume.
    ``fell_back`` / ``fallback_stage`` record whether the guard routed
    this matrix to the tree; ``info`` carries the engine's
    :class:`~repro.core.cholesky_qr.CholQRInfo` when the cheap path ran.
    """

    def __init__(self, Q: np.ndarray, R: np.ndarray, *, info=None,
                 fell_back: bool = False, fallback_stage: str | None = None):
        self._q = Q
        self.R = R
        self.info = info
        self.fell_back = fell_back
        self.fallback_stage = fallback_stage

    @property
    def shape(self) -> tuple[int, int]:
        return (self._q.shape[0], self.R.shape[1])

    def form_q(self, out: np.ndarray | None = None) -> np.ndarray:
        """The explicit thin Q; copied into ``out`` unless Q was formed there.

        A plan's ``execute(A, out=buf)`` factors with Q in ``buf``, so
        this returns ``buf`` itself without a copy.
        """
        if out is None or out is self._q:
            return self._q
        from repro.core.dtypes import q_buffer

        np.copyto(q_buffer(out, *self._q.shape, self._q.dtype), self._q)
        return out

    def apply_qt(self, B: np.ndarray) -> np.ndarray:
        return self._q.T @ B

    def apply_q(self, B: np.ndarray) -> np.ndarray:
        return self._q @ B


def _fallback_schedule(m: int, n: int, policy: ExecutionPolicy):
    from dataclasses import replace

    from repro.graph.executor import build_lookahead_schedule

    tree_policy = replace(policy, path="batched", condition_limit=None)
    return build_lookahead_schedule(m, n, tree_policy)


def _run_fallback(A, policy, schedule, stage: str, q_out=None):
    """Factor on the Householder tree after a guard refusal (Q in ``q_out``).

    The tree works in Q's buffer (:func:`run_lookahead_schedule`): one
    panel forms Q over its level-0 reflectors, so without ``q_out`` its
    buffer is allocated here, before the factor.
    """
    from repro.graph.executor import run_lookahead_schedule

    _record_fallback(stage)
    m, n = A.shape
    if schedule is None:
        schedule = _fallback_schedule(m, n, policy)
    if q_out is None and not schedule.has_updates:
        q_out = np.empty((m, n), dtype=A.dtype)
    # The span names the tree's geometry: panel count and level-0 height
    # (a refusal needs a nonempty matrix, so there is a first panel).
    with _obs.span(
        "cholqr.fallback", cat="cholqr", m=m, n=n, stage=stage,
        panels=len(schedule.panels), block_rows=schedule.panels[0][3],
    ):
        _obs.counters(cholqr_fallbacks=1)
        factors = run_lookahead_schedule(schedule, A, q_out=q_out)
        Q = factors.form_q(out=q_out)
    return CholQRFactors(Q, factors.R, fell_back=True, fallback_stage=stage)


def run_cholqr(
    A: np.ndarray,
    policy: ExecutionPolicy,
    *,
    workspace=None,
    schedule=None,
    q_out=None,
) -> CholQRFactors:
    """Factor validated ``A`` under a CholeskyQR2 policy.

    ``workspace`` is an optional
    :class:`~repro.core.cholesky_qr.CholQRWorkspace` (plans pass a
    per-thread one); ``schedule`` is an optional prebuilt look-ahead
    schedule for the ``auto`` fallback.  ``q_out`` is an optional
    C-contiguous ``(m, min(m, n))`` array Q is formed in, on the cheap
    path and on the fallback alike (it must not overlap ``A``; the
    plan checks).  Wide matrices factor their
    leading square block on the cheap path and finish the trailing
    columns with one GEMM, exactly like the thin-QR contract of every
    other path.
    """
    from repro.core.cholesky_qr import CholeskyBreakdownError, cholqr2_factor

    m, n = A.shape
    k = min(m, n)
    guard = CholQRGuard.for_policy(policy, A.dtype)
    mixed = policy.spec.mixed
    left = A if n <= m else A[:, :m]  # the engine copies it into Q's buffer
    stage = None
    try:
        with _obs.span(
            "cholqr.factor", cat="cholqr", m=m, n=n, path=policy.path, mixed=mixed
        ):
            Q, R11, info = cholqr2_factor(
                left, mixed=mixed, workspace=workspace, check=guard, out=q_out
            )
    except _FallbackRequested as req:
        stage = req.stage
    except CholeskyBreakdownError as exc:
        if not policy.spec.fallback:
            raise
        # Breakdown mid-factorization (not a guard refusal): the
        # adaptive path still owes the caller a factorization.
        stage = exc.stage
    if stage is not None:
        # Out of the handlers, so the refused attempt's frames, and any
        # working matrix it allocated, are gone before the tree runs.
        return _run_fallback(A, policy, schedule, stage, q_out)
    if n > m:
        R = np.empty((k, n), dtype=A.dtype)
        R[:, :m] = R11
        R[:, m:] = Q.T @ A[:, m:]
    else:
        R = R11
    return CholQRFactors(Q, R, info=info)
