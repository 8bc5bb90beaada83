"""Stacked batched CAQR: many independent same-shape QRs in one pass.

:func:`repro.core.caqr._caqr_serial` factors one matrix panel by panel,
each panel with TSQR's panel engine (:func:`repro.core.tsqr.factor_panel`)
and its trailing update and Q application with the engine's apply plan
(:func:`repro.core.tsqr.apply_wy_plan`).  :class:`ServingPlan` runs the
same engine on a second axis — ``requests``: ``r`` independent
``(m, n)`` problems are stacked into an ``(r, m, n)`` array, and every
level-0 factorization, tree combine, trailing update and Q application
runs as one batched kernel call over ``r * nodes`` slices instead of
``nodes`` slices ``r`` times.

**Bit-identity.**  The engine factors every slice on its own, with a
kernel picked from the slice shape alone, never from how many slices
are stacked; and it hands each slice to the batched GEMMs of
:func:`~repro.smallblas.wy.apply_wy` with the strides it has when its
request runs alone (``apply_wy``'s bits depend on them).  So slice ``i``
of the stacked result equals what ``QRPlan.factor`` produces for
request ``i`` alone, bit for bit.  The serving tests and the fuzz grid
pin this; it is the contract that lets the coalescer merge tenants'
requests without changing anyone's answer.

At serving shapes (hundreds of rows, tens of columns) per-batch Python
work costs as much as the GEMMs, so :class:`ServingPlan` holds every
panel's schedule (:func:`repro.core.tsqr.panel_schedule`: the blocks,
the tree and its row maps), built once per ``(m, n, dtype, policy)``.
The input staging buffer is pooled on the plan (the server's single
worker thread is the only executor), so a steady-state batch performs
no large allocations beyond its own ``Q``/``R`` outputs.
"""

from __future__ import annotations

import numpy as np

from repro.core.tsqr import apply_wy_plan, factor_panel, level0_rows, panel_schedule
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
        self.k = min(m, n)
        pw = policy.effective_panel_width(m, n)
        # (col_start, schedule) per panel; the grid is redrawn lower by
        # the panel width, so a panel's rows start at its first column.
        self.panels = []
        for c0 in range(0, self.k, pw):
            w = min(pw, self.k - c0)
            bh = level0_rows(policy.block_rows, w)
            self.panels.append((c0, panel_schedule(m - c0, w, bh, policy.tree_shape)))
        self._diag = np.arange(self.k)
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
        r = W.shape[0]
        k = self.k
        plans = []
        for c0, sched in self.panels:
            c1 = c0 + sched.width
            Rp, plan, _ = factor_panel(sched, W[:, c0:, c0:c1])
            trailing = W[:, c0:, c1:]
            if trailing.size:
                apply_wy_plan(plan, trailing, transpose=True)
            rh = Rp.shape[1]
            W[:, c0 : c0 + rh, c0:c1] = Rp
            W[:, c0 + rh :, c0:c1] = 0.0
            plans.append((c0, plan))
        R = np.triu(W[:, :k, :])
        Q = np.zeros((r, self.m, k), dtype=W.dtype)
        Q[:, self._diag, self._diag] = 1.0
        for c0, plan in reversed(plans):
            apply_wy_plan(plan, Q[:, c0:, :], transpose=False)
        return Q, R


def stacked_qr(mats, plan: ServingPlan) -> tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper: stage ``mats`` into the pooled buffer and factor."""
    W = plan.staging(len(mats))
    for i, a in enumerate(mats):
        np.copyto(W[i], a)
    return plan.factor_stack(W)
