"""Async multi-tenant QR serving on top of the thread-safe dispatcher.

``QRServer.submit`` accepts a matrix from any thread and returns a
``concurrent.futures.Future``; a single worker thread drains the bounded
:class:`~repro.serving.coalesce.CoalescingQueue` in time/size windows,
groups the window's requests by ``(m, n, dtype, policy)`` and executes
each group as far up the *degradation ladder* as it qualifies:

1. **Coalesced** — two or more same-key requests under a coalescable
   (``batched``-path) policy: stacked into one ``(r, m, n)`` array
   and factored by :class:`~repro.serving.batch.ServingPlan` in a single
   batched compact-WY pass.  Per-request results are bit-identical to
   uncoalesced ``QRDispatcher.qr`` (see :mod:`repro.serving.batch`), so
   coalescing is invisible to tenants except as throughput.
2. **Shared plan** — same-key requests that cannot stack (a custom
   non-``batched`` policy, e.g. a CholeskyQR2 path): one
   ``plan_qr``/predict per group, then per-request ``plan.factor``.
   This amortizes dispatch/planning overhead but not kernel launches.
   CholeskyQR2 groups stop here *by design*: their Gram stage runs as a
   single ``syrk`` whose accumulation order differs from a stacked
   GEMM's, so a stacked variant could not keep the bit-identity promise.
3. **Per-request** — singletons, oversize shapes, non-``caqr`` engine
   choices, non-finite inputs: straight through ``QRDispatcher.qr``,
   exactly as if no server existed.

Failures stay request-scoped: a non-finite matrix fails *its* future
with the same error the dispatcher raises, never the batch.
Backpressure is typed (:class:`~repro.serving.errors.QueueFullError`,
:class:`~repro.serving.errors.ServerClosedError`) so callers can tell
overload from bad input.

Every completion emits a ``serving.request`` obs span carrying the
tenant label, queue latency and execution rung, so a per-tenant latency
breakdown falls out of the standard :mod:`repro.obs` capture (see
:func:`repro.obs.tenant_summary`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic
from typing import Any

import numpy as np

from repro.dispatch import DispatchedQR, QRDispatcher
from repro.obs import tracer as _obs
from repro.runtime import ExecutionPolicy, plan_qr
from repro.verify.guards import validate_matrix

from .batch import ServingPlan
from .coalesce import CoalescingQueue
from .errors import QueueFullError, ServerClosedError

__all__ = ["QRServer", "ServingStats"]

# Problems past this element count leave the small-to-medium regime the
# coalescer targets; one request already fills the BLAS3 kernels, so
# stacking only adds staging-buffer pressure.
DEFAULT_MAX_COALESCE_ELEMS = 1 << 18  # 512 x 512


@dataclass
class ServingStats:
    """Monotonic counters describing one server's traffic so far."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    shed: int = 0
    coalesced_requests: int = 0
    coalesced_batches: int = 0
    shared_plan_requests: int = 0
    per_request: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Pending:
    """One admitted request waiting for (or in) execution."""

    A: np.ndarray
    tenant: str
    policy: ExecutionPolicy | None
    future: Future = field(default_factory=Future)
    t_submit: float = field(default_factory=monotonic)

    @property
    def key(self) -> tuple:
        return (self.A.shape[0], self.A.shape[1], self.A.dtype.str, self.policy)


class QRServer:
    """Coalescing front end over one (thread-safe) :class:`QRDispatcher`.

    Args:
        dispatcher: the dispatcher to serve (default: a fresh one with
            the reference policy).
        max_batch: coalescing window size bound — at most this many
            requests execute per window.
        max_wait_ms: coalescing window time bound — once the first
            request of a window is taken, at most this long is spent
            waiting for the batch to fill.  The worst-case latency tax a
            lone request pays for batching.
        max_depth: admission bound on *waiting* requests; beyond it,
            ``overflow`` applies.
        overflow: ``"reject"`` (raise :class:`QueueFullError` at submit)
            or ``"shed"`` (admit the new request, fail the oldest
            waiting one with a ``shed`` :class:`QueueFullError`).
        max_coalesce_elems: per-problem size ceiling (``m * n``) for the
            stacked path; bigger problems go per-request.
    """

    def __init__(
        self,
        dispatcher: QRDispatcher | None = None,
        *,
        max_batch: int = 96,
        max_wait_ms: float = 2.0,
        max_depth: int = 256,
        overflow: str = "reject",
        max_coalesce_elems: int = DEFAULT_MAX_COALESCE_ELEMS,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self._dispatcher = dispatcher if dispatcher is not None else QRDispatcher()
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1e3
        self.max_coalesce_elems = max_coalesce_elems
        self._queue = CoalescingQueue(max_depth=max_depth, overflow=overflow)
        # Worker-thread-only LRU caches: stacked serving plans and the
        # QRPlans of custom-policy groups.  No lock — only _run touches
        # them (the dispatcher's own caches are the shared, sharded ones).
        self._stack_plans: OrderedDict[tuple, ServingPlan] = OrderedDict()
        self._policy_plans: OrderedDict[tuple, Any] = OrderedDict()
        self._plan_cache_size = 32
        self._stats = ServingStats()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="qr-server", daemon=True
        )
        self._worker.start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "QRServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Stop admissions; drain (``wait=True``) or abort pending work."""
        self._closed = True
        if not wait:
            drained = self._queue.drain()
            self._count(submitted=len(drained))
            for req in drained:
                self._fail(req, ServerClosedError("server closed before execution"))
        self._queue.close()
        self._worker.join()

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> ServingStats:
        with self._stats_lock:
            return ServingStats(**self._stats.as_dict())

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, d in deltas.items():
                setattr(self._stats, name, getattr(self._stats, name) + d)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        A: np.ndarray,
        *,
        tenant: str = "default",
        policy: ExecutionPolicy | None = None,
    ) -> Future:
        """Admit one QR request; returns a future of ``DispatchedQR``.

        Malformed input (non-2-D, complex) raises synchronously, exactly
        like ``QRDispatcher.qr`` would.  Non-finite entries are detected
        at execution (batched over the window) and fail the request's
        future with the dispatcher's own error.  ``policy=None`` serves
        the dispatcher's policy; an explicit policy is honored
        per-request and only ever coalesced with requests carrying an
        equal policy.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        # Shape/dtype normalization up front (cheap, no data scan); the
        # finite-ness scan is deferred to the batch.
        A = validate_matrix(A, where="QRServer.submit", nonfinite="propagate")
        req = _Pending(A=A, tenant=tenant, policy=policy)
        try:
            shed = self._queue.put(req)
        except QueueFullError:
            self._count(rejected=1)
            _obs.counters(serving_rejected=1)
            raise
        if shed is not None:
            self._count(shed=1)
            _obs.counters(serving_shed=1)
            self._fail(
                shed,
                QueueFullError(
                    "request shed by a newer arrival (overflow='shed')",
                    depth=self._queue.max_depth,
                    shed=True,
                ),
            )
        # ``submitted`` is tallied by the worker (one stats-lock hit per
        # window, not per request): at coalesced throughput a per-submit
        # lock acquisition here measurably taxes the producer threads.
        return req.future

    def qr_many(
        self, mats, *, tenant: str = "default",
        policy: ExecutionPolicy | None = None,
    ) -> list[DispatchedQR]:
        """Submit a sequence and wait for all results (order preserved)."""
        futures = [self.submit(A, tenant=tenant, policy=policy) for A in mats]
        return [f.result() for f in futures]

    # -- worker ------------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._queue.get_batch(self.max_batch, self.max_wait)
            if batch is None:
                return
            self._count(submitted=len(batch))
            groups: dict[tuple, list[_Pending]] = defaultdict(list)
            for req in batch:
                groups[req.key].append(req)
            with _obs.span(
                "serving.window", cat="serving",
                requests=len(batch), groups=len(groups),
            ):
                for key, reqs in groups.items():
                    try:
                        self._execute_group(key, reqs)
                    except Exception as exc:  # defensive: never kill the loop
                        for req in reqs:
                            if not req.future.done():
                                self._fail(req, exc)

    def _execute_group(self, key: tuple, reqs: list[_Pending]) -> None:
        m, n, dtstr, policy = key
        pol = policy if policy is not None else self._dispatcher.policy
        if self._stack_eligible(m, n, dtstr, policy, pol, len(reqs)):
            if self._execute_stacked(m, n, dtstr, policy, pol, reqs):
                return
        if policy is not None:
            self._execute_shared_plan(m, n, dtstr, policy, reqs)
            return
        for req in reqs:
            self._execute_one(req)

    def _stack_eligible(
        self, m: int, n: int, dtstr: str, policy, pol, count: int
    ) -> bool:
        if count < 2 or not pol.spec.coalescable:
            return False
        if pol.nonfinite != "raise":
            # "propagate" semantics are per-matrix; keep NaN traffic out
            # of shared stacks so one tenant's poison stays theirs.
            return False
        if np.dtype(dtstr).type not in (np.float32, np.float64):
            return False
        if m * n > self.max_coalesce_elems:
            return False
        if policy is None and self._dispatcher.choose(m, n).engine != "caqr":
            return False
        return True

    def _execute_stacked(
        self, m, n, dtstr, policy, pol, reqs: list[_Pending]
    ) -> bool:
        """Rung 1.  Returns False when the group must degrade (rare)."""
        plan = self._stack_plan(m, n, dtstr, pol)
        W = plan.staging(len(reqs))
        for i, req in enumerate(reqs):
            np.copyto(W[i], req.A)
        finite = np.isfinite(W).all(axis=(1, 2))
        good = reqs
        if not finite.all():
            bad = [r for r, ok in zip(reqs, finite) if not ok]
            good = [r for r, ok in zip(reqs, finite) if ok]
            for req in bad:
                self._execute_one(req)  # raises the dispatcher's error
            if len(good) < 2:
                for req in good:
                    self._execute_one(req)
                return True
            W = plan.staging(len(good))
            for i, req in enumerate(good):
                np.copyto(W[i], req.A)
        preds = self._dispatcher.predict(m, n) if policy is None else []
        with _obs.span(
            "serving.stacked", cat="serving", m=m, n=n, requests=len(good)
        ):
            Q, R = plan.factor_stack(W)
        _obs.counters(serving_coalesced=len(good))
        # One stats-lock acquisition for the whole batch; _finish skips
        # its per-request count (the hot rung completes thousands of
        # requests a second, so per-request locking is measurable).
        self._count(
            coalesced_requests=len(good), coalesced_batches=1,
            completed=len(good),
        )
        for i, req in enumerate(good):
            self._finish(
                req,
                DispatchedQR(engine="caqr", Q=Q[i], R=R[i],
                             predictions=list(preds)),
                rung="coalesced",
                counted=True,
            )
        return True

    def _execute_shared_plan(self, m, n, dtstr, policy, reqs) -> None:
        """Rung 2: one plan for the group, per-request factorization."""
        plan = self._policy_plan(m, n, dtstr, policy)
        self._count(shared_plan_requests=len(reqs))
        for req in reqs:
            try:
                A = validate_matrix(
                    req.A, where="QRServer.qr", nonfinite=policy.nonfinite
                )
                f = plan.factor(A, validated=True)
                result = DispatchedQR(
                    engine="caqr", Q=f.form_q(), R=f.R,
                    fell_back=bool(getattr(f, "fell_back", False)),
                )
            except Exception as exc:
                self._fail(req, exc)
            else:
                self._finish(req, result, rung="shared-plan")

    def _execute_one(self, req: _Pending) -> None:
        """Rung 3: the uncoalesced dispatcher path."""
        self._count(per_request=1)
        try:
            result = self._dispatcher.qr(req.A)
        except Exception as exc:
            self._fail(req, exc)
        else:
            self._finish(req, result, rung="per-request")

    # -- plumbing ----------------------------------------------------------

    def _stack_plan(self, m, n, dtstr, pol) -> ServingPlan:
        key = (m, n, dtstr, pol)
        plan = self._stack_plans.get(key)
        if plan is None:
            plan = ServingPlan(m, n, np.dtype(dtstr), pol)
            self._stack_plans[key] = plan
            while len(self._stack_plans) > self._plan_cache_size:
                self._stack_plans.popitem(last=False)
        else:
            self._stack_plans.move_to_end(key)
        return plan

    def _policy_plan(self, m, n, dtstr, policy):
        key = (m, n, dtstr, policy)
        plan = self._policy_plans.get(key)
        if plan is None:
            plan = plan_qr(m, n, dtype=np.dtype(dtstr), policy=policy)
            self._policy_plans[key] = plan
            while len(self._policy_plans) > self._plan_cache_size:
                self._policy_plans.popitem(last=False)
        else:
            self._policy_plans.move_to_end(key)
        return plan

    def _finish(
        self, req: _Pending, result: DispatchedQR, rung: str,
        counted: bool = False,
    ) -> None:
        if _obs.enabled():
            queue_ms = (monotonic() - req.t_submit) * 1e3
            with _obs.span(
                "serving.request", cat="serving", tenant=req.tenant,
                rung=rung, queue_ms=round(queue_ms, 3),
                m=req.A.shape[0], n=req.A.shape[1],
            ):
                pass
        if not counted:
            self._count(completed=1)
        req.future.set_result(result)

    def _fail(self, req: _Pending, exc: Exception) -> None:
        if _obs.enabled():
            with _obs.span(
                "serving.request", cat="serving", tenant=req.tenant,
                rung="failed", error=type(exc).__name__,
                m=req.A.shape[0], n=req.A.shape[1],
            ):
                pass
        self._count(failed=1)
        req.future.set_exception(exc)
