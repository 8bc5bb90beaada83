"""Incremental row-append QR: out-of-core sequential CAQR.

This is the "flat tree" regime of Demmel–Grigori–Hoemmen–Langou's
sequential CAQR (arXiv 0809.2407): the tall matrix arrives chunk by
chunk, each chunk is factored on the in-core look-ahead driver at the
streaming engine's panel width (:func:`chunk_policy`: a reusable
``batched`` plan for full-height chunks, a schedule built for the
chunk's height for a ragged one, bit for bit the same arithmetic), and
the chunk's ``min(h, n) x n`` triangle folds into the running
``<= n x n`` carry as one TSQR tree merge
(:func:`repro.core.tsqr.merge_rs`, the node the sharded fan-in rounds
run too): the chain is a maximally unbalanced tree.

Resident state between chunks is the carry triangle alone, so memory is
bounded by ``chunk_rows x n`` regardless of how many rows stream past —
the property the soak gate (``tools/check_bench.py --check-streaming``)
pins.  With ``retain_q=True`` every chunk's implicit-Q factors and every
fold's tree entry are kept, and :class:`StreamingCAQRFactors` applies Q
and Q^T in place on ``m`` rows and forms Q
(:class:`~repro.core.caqr.MergedCAQRFactors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.caqr import MergedCAQRFactors
from repro.core.tsqr import merge_rs
from repro.obs import tracer as _obs
from repro.runtime.policy import STREAMING, ExecutionPolicy
from repro.verify.guards import validate_stream_chunk

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "StreamSchedule",
    "StreamingCAQRFactors",
    "StreamingQR",
    "build_stream_schedule",
    "chunk_policy",
    "run_streaming_matrix",
    "stream_qr",
]

DEFAULT_CHUNK_ROWS = 8192


# -- the per-chunk plan-level schedule ------------------------------------


@dataclass(frozen=True)
class StreamSchedule:
    """The chunk row deal of a streaming factorization (pure shape math)."""

    m: int
    n: int
    chunk_rows: int
    rows: tuple[tuple[int, int], ...]

    @property
    def chunks(self) -> int:
        return len(self.rows)


def build_stream_schedule(m: int, n: int, chunk_rows: int) -> StreamSchedule:
    """Cut the tall axis into ``chunk_rows``-row chunks (ragged tail last)."""
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    rows = tuple(
        (s, min(s + chunk_rows, m)) for s in range(0, m, chunk_rows)
    )
    return StreamSchedule(m=m, n=n, chunk_rows=chunk_rows, rows=rows)


def chunk_policy(policy: ExecutionPolicy, n: int) -> ExecutionPolicy:
    """The per-chunk policy of a streaming ``policy`` over ``n`` columns.

    The in-core ``batched`` driver with guards off (chunks are validated
    once at the stream boundary), pinned to the panel width the
    streaming engine reports: the driver's own rule would factor a tall
    chunk as one panel.
    """
    return ExecutionPolicy(
        path="batched",
        panel_width=policy.effective_panel_width(policy.chunk_rows, n),
        block_rows=policy.block_rows,
        tree_shape=policy.tree_shape,
        nonfinite="propagate",
    )


def _chunk_factor(chunk: np.ndarray, inner: ExecutionPolicy):
    """One chunk's local CAQR on the look-ahead driver under ``inner``
    (its :func:`chunk_policy`), with a schedule built for its height."""
    from repro.graph.executor import build_lookahead_schedule, run_lookahead_schedule

    h, n = chunk.shape
    return run_lookahead_schedule(build_lookahead_schedule(h, n, inner), chunk)


# -- the retained factorization -------------------------------------------


@dataclass
class StreamingCAQRFactors(MergedCAQRFactors):
    """Implicit Q and explicit R of a streamed CAQR factorization: the
    chunks' local CAQR factors (``blocks``) and one merge level per fold
    (``levels``).

    Applying Q needs them retained (``retain_q=True`` — the default for
    the in-memory ``caqr(path="streaming")`` entry); a soak run retains
    nothing and holds only the carry triangle, and its ``apply_qt``,
    ``apply_q`` and ``form_q`` raise ``RuntimeError``.
    """

    chunk_rows: int
    retained: bool

    def _apply(self, B: np.ndarray, transpose: bool) -> np.ndarray:
        if min(self.m, self.n) and not self.retained:
            raise RuntimeError(
                "applying Q needs the retained per-chunk factors; this "
                "factorization ran with retain_q=False (R-only soak mode)"
            )
        return super()._apply(B, transpose)


# -- the streaming engine -------------------------------------------------


class StreamingQR:
    """Incremental row-append QR over an unbounded chunk stream.

    Push chunks (any height; the ingestion layer normalizes them), read
    the running ``R`` at any point.  Constructing this class outside
    ``repro.streaming`` is a layering-lint violation: external callers
    go through :func:`stream_qr`, ``caqr(policy=...path='streaming')``
    or a ``plan_qr`` plan, so chunk geometry stays an
    :class:`~repro.runtime.policy.ExecutionPolicy` decision and the
    per-chunk obs spans / memory accounting are never bypassed.

    Args:
        n_cols: the stream's column count (``None``: set by the first
            chunk).
        policy: a ``path="streaming"`` policy (default:
            ``chunk_rows=DEFAULT_CHUNK_ROWS``).  ``chunk_rows`` sizes
            the reusable per-chunk plan; pushed chunks of exactly that
            height go through the plan, others (e.g. the ragged tail)
            are factored directly.
        retain_q: keep every chunk's implicit-Q factors and every
            fold's tree entry so the :meth:`factors` apply Q — memory
            then grows with the stream.  ``False`` (soak mode) keeps only
            the carry triangle: memory is bounded by one chunk.
    """

    def __init__(
        self,
        n_cols: int | None = None,
        policy: ExecutionPolicy | None = None,
        retain_q: bool = False,
    ) -> None:
        if policy is None:
            policy = ExecutionPolicy(path="streaming", chunk_rows=DEFAULT_CHUNK_ROWS)
        if policy.engine is not STREAMING:
            raise ValueError(
                f"StreamingQR needs a path='streaming' policy, got {policy.path!r}"
            )
        self.policy = policy
        self.retain_q = retain_q
        self._n = None if n_cols is None else int(n_cols)
        self._dtype: np.dtype | None = None
        self._R: np.ndarray | None = None
        self._rows = 0
        self._chunks = 0
        self._blocks: list = []  # (row_start, CAQRFactors) per chunk, when retained
        self._levels: list = []  # one merge level per fold, when retained
        self._chunk_plan = None  # reusable plan for full-height chunks
        self._retained_bytes = 0
        self.peak_tracked_bytes = 0
        self._inner: ExecutionPolicy | None = None  # chunk_policy, on the first chunk

    # -- state views -------------------------------------------------------

    @property
    def n_cols(self) -> int | None:
        return self._n

    @property
    def rows_seen(self) -> int:
        return self._rows

    @property
    def n_chunks(self) -> int:
        return self._chunks

    @property
    def R(self) -> np.ndarray:
        """The running ``min(rows_seen, n) x n`` upper-trapezoidal R."""
        if self._R is not None:
            return self._R
        n = 0 if self._n is None else self._n
        dt = self._dtype if self._dtype is not None else np.dtype(np.float64)
        return np.zeros((0, n), dtype=dt)

    @property
    def resident_tracked_bytes(self) -> int:
        """Deterministic footprint of the carried state (pure shape math)."""
        carry = 0 if self._R is None else int(self._R.nbytes)
        return carry + self._retained_bytes

    # -- the pipeline ------------------------------------------------------

    def push(self, chunk, validated: bool = False) -> "StreamingQR":
        """Fold one chunk of rows into the running factorization."""
        if not validated:
            chunk = validate_stream_chunk(
                chunk,
                where="StreamingQR.push",
                n_cols=self._n,
                dtype=self._dtype,
                nonfinite=self.policy.nonfinite,
            )
        else:
            chunk = np.asarray(chunk)
        if self._n is None:
            self._n = int(chunk.shape[1])
        if self._dtype is None:
            self._dtype = chunk.dtype
        h = int(chunk.shape[0])
        if h == 0 or self._n == 0:
            self._rows += h
            return self
        idx = self._chunks
        itemsize = self._dtype.itemsize
        resident_before = self.resident_tracked_bytes
        with _obs.span("stream.push", cat="stream", chunk=idx, rows=h):
            with _obs.span("stream.factor", cat="factor", chunk=idx, rows=h):
                f = self._factor_chunk(chunk)
            rc = np.triu(f.R)
            kc = int(rc.shape[0])
            r_b = 0 if self._R is None else int(self._R.shape[0])
            if self._R is None:
                self._R = rc
            else:
                # The carry lies in rows [0, r_b), the chunk's R in the
                # top rows of its own row range.
                with _obs.span(
                    "stream.merge", cat="stream", chunk=idx, carry=r_b, rows=kc
                ):
                    self._R, entry = merge_rs([self._R, rc], [0, self._rows])
                if self.retain_q:
                    self._levels.append([entry])
            if self.retain_q:
                self._blocks.append((self._rows, f))
            self._rows += h
            self._chunks += 1
            _obs.counters(stream_rows=h, stream_chunks=1)
        # Deterministic peak accounting: carry + transients of this push
        # (the chunk, its working copy + factors, the merge stack).  A
        # pure function of shapes, so the soak gate pins it without OS
        # noise; bounded because chunk shape and carry height both are.
        transient = 3 * h * self._n * itemsize + (r_b + kc) * self._n * itemsize
        if self.retain_q:
            self._retained_bytes += h * self._n * itemsize + kc * kc * itemsize
        self.peak_tracked_bytes = max(
            self.peak_tracked_bytes, resident_before + transient
        )
        return self

    def _factor_chunk(self, chunk: np.ndarray):
        if self._inner is None:
            self._inner = chunk_policy(self.policy, self._n)
        if chunk.shape[0] == self.policy.chunk_rows:
            if self._chunk_plan is None:
                from repro.runtime.plan import plan_qr

                self._chunk_plan = plan_qr(
                    self.policy.chunk_rows, self._n, self._dtype, self._inner
                )
            return self._chunk_plan.factor(chunk, validated=True)
        return _chunk_factor(chunk, self._inner)

    def factors(self) -> StreamingCAQRFactors:
        """Snapshot the stream as a :class:`StreamingCAQRFactors`."""
        n = 0 if self._n is None else self._n
        k = min(self._rows, n)
        if self._R is not None:
            R = self._R
        else:
            dt = self._dtype if self._dtype is not None else np.dtype(np.float64)
            R = np.zeros((k, n), dtype=dt)
        return StreamingCAQRFactors(
            m=self._rows,
            n=n,
            R=R,
            blocks=list(self._blocks),  # a snapshot: later pushes do not reach it
            levels=list(self._levels),
            chunk_rows=self.policy.chunk_rows,
            retained=self.retain_q,
        )


# -- entry points ---------------------------------------------------------


def run_streaming_matrix(
    A: np.ndarray,
    policy: ExecutionPolicy,
    schedule: StreamSchedule | None = None,
    retain_q: bool = True,
) -> StreamingCAQRFactors:
    """Stream an *already validated* in-memory matrix chunk by chunk.

    The ``caqr(path="streaming")`` / ``QRPlan.factor`` backend: the
    matrix is cut along the schedule's row deal (built here when no
    prebuilt plan schedule is passed) and pushed through
    :class:`StreamingQR`.  Chunks are row slices of the validated input,
    so the guard layer runs exactly once per public call.
    """
    m, n = A.shape
    if schedule is None:
        schedule = build_stream_schedule(m, n, policy.chunk_rows)
    sq = StreamingQR(n_cols=n, policy=policy, retain_q=retain_q)
    for s, e in schedule.rows:
        sq.push(A[s:e], validated=True)
    f = sq.factors()
    if f.R.dtype != A.dtype:
        # Degenerate empty streams default to float64; pin the input dtype.
        f.R = f.R.astype(A.dtype)
    return f


def stream_qr(
    source,
    policy: ExecutionPolicy | None = None,
    retain_q: bool = False,
    max_in_flight: int = 2,
) -> StreamingQR:
    """Consume an iterable of row blocks into a streamed factorization.

    The public out-of-core entry point: re-blocks the source through the
    bounded :func:`repro.streaming.ingest.stream_chunks` window (so
    producer block heights never need to match ``chunk_rows``), folds
    every chunk, and returns the consumed :class:`StreamingQR` — read
    ``.R``, ``.rows_seen``, ``.peak_tracked_bytes`` off it.
    """
    if policy is None:
        policy = ExecutionPolicy(path="streaming", chunk_rows=DEFAULT_CHUNK_ROWS)
    from repro.streaming.ingest import stream_chunks

    sq = StreamingQR(policy=policy, retain_q=retain_q)
    with _obs.maybe_trace(policy.trace):
        with _obs.span("stream.qr", cat="entry", chunk_rows=policy.chunk_rows):
            for chunk in stream_chunks(
                source,
                policy.chunk_rows,
                max_in_flight=max_in_flight,
                nonfinite=policy.nonfinite,
            ):
                sq.push(chunk, validated=True)
    return sq
