"""Stacked batched CAQR: many independent same-shape QRs in one pass.

The look-ahead driver (:func:`repro.graph.executor.factor_stack`) runs
on an ``(r, m, n)`` stack of ``r`` independent requests: every level-0
factorization, tree combine, trailing update and Q application runs as
one batched kernel call over ``r * nodes`` slices instead of ``nodes``
slices ``r`` times.  :class:`ServingPlan` is that driver, run on the
stack a coalesced batch of requests fills; the default ``batched``
path is the same driver run on a stack of one.

**Bit-identity.**  It holds by construction: a request served alone and
a request served in a stack run the same driver, and TSQR's panel
engine factors every slice on its own, with a kernel picked from the
slice shape alone, and hands each slice to the batched GEMMs with the
strides it has alone (``apply_wy``'s bits depend on them).  Q is formed
by the same rule as :meth:`repro.core.caqr.CAQRFactors.form_q`
(:func:`repro.graph.executor.form_q_stack`).  So slice ``i`` of the
stacked result equals what ``QRPlan.factor`` produces for request ``i``
alone, bit for bit.  The serving tests and the fuzz grid pin this; it
is the contract that lets the coalescer merge tenants' requests without
changing anyone's answer.

At serving shapes (hundreds of rows, tens of columns) per-batch Python
work costs as much as the GEMMs, so :class:`ServingPlan` holds the
driver's :class:`~repro.graph.executor.LookaheadSchedule` (every panel's
TSQR schedule included), built once per ``(m, n, dtype, policy)``.
The input staging buffer is pooled on the plan (the server's single
worker thread is the only executor), so a steady-state batch performs
no large allocations beyond its own ``Q``/``R`` outputs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.executor import build_lookahead_schedule, factor_stack, form_q_stack
from repro.runtime.policy import ExecutionPolicy

__all__ = ["ServingPlan", "stacked_qr"]


class ServingPlan:
    """Reusable stacked-execution plan for one ``(m, n, dtype, policy)``.

    Built once per shape by the server's worker thread and cached; not
    thread-safe (the pooled staging buffer assumes a single executor).
    """

    def __init__(self, m: int, n: int, dtype, policy: ExecutionPolicy):
        if not policy.spec.coalescable:
            raise ValueError(
                f"ServingPlan implements the 'batched' path arithmetic, "
                f"got path={policy.path!r}"
            )
        self.m, self.n = m, n
        self.dtype = np.dtype(dtype)
        self.policy = policy
        self.schedule = build_lookahead_schedule(m, n, policy)
        self._staging: np.ndarray | None = None

    def staging(self, r: int) -> np.ndarray:
        """Pooled ``(r, m, n)`` input buffer, grown to the high-water mark."""
        buf = self._staging
        if buf is None or buf.shape[0] < r:
            buf = self._staging = np.empty((r, self.m, self.n), dtype=self.dtype)
        return buf[:r]

    def factor_stack(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Factor the owned, mutable ``(r, m, n)`` stack ``W`` in place.

        Returns ``(Q, R)`` stacks, slice ``i`` bit-identical to the
        per-request batched path on ``W[i]``.
        """
        R, panels = factor_stack(self.schedule, W)
        return form_q_stack(self.schedule, panels, W.shape[0], W.dtype), R


def stacked_qr(mats, plan: ServingPlan) -> tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper: stage ``mats`` into the pooled buffer and factor."""
    W = plan.staging(len(mats))
    for i, a in enumerate(mats):
        np.copyto(W[i], a)
    return plan.factor_stack(W)
