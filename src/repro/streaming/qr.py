"""Incremental row-append QR: out-of-core sequential CAQR.

This is the "flat tree" regime of Demmel–Grigori–Hoemmen–Langou's
sequential CAQR (arXiv 0809.2407): the tall matrix arrives chunk by
chunk, each chunk is factored on the in-core look-ahead driver at the
streaming engine's panel width (:func:`chunk_policy`: a reusable
``batched`` plan for full-height chunks, a schedule built for the
chunk's height for a ragged one, bit for bit the same arithmetic), and
the chunk's ``min(h, n) x n`` triangle folds into the running
``<= n x n`` carry through exactly the elimination the TSQR tree nodes
use:

* once the carry is a full ``n x n`` triangle (the steady state), the
  fold is :func:`repro.core.structured.structured_stack_qr` — the
  sparsity-exploiting stacked-triangle elimination at ~1/3 the dense
  flops;
* while the carry is still shorter than ``n`` (start-up on very short
  chunks), the fold is the dense ``geqr2`` merge, byte-for-byte the
  arithmetic of one :func:`repro.distributed.sharded._reduce` node.

Resident state between chunks is the carry triangle alone, so memory is
bounded by ``chunk_rows x n`` regardless of how many rows stream past —
the property the soak gate (``tools/check_bench.py --check-streaming``)
pins.  With ``retain_q=True`` every chunk's implicit-Q factors and every
merge's reflectors are kept, and :meth:`StreamingCAQRFactors.form_q`
reconstructs the explicit thin Q by the same top-down coefficient walk
:meth:`repro.distributed.sharded.ShardedCAQRFactors.form_q` does over
its tree — the chain here is just a maximally unbalanced tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dtypes import q_buffer
from repro.core.householder import geqr2, orm2r
from repro.core.structured import StructuredStackFactor, structured_stack_qr
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


# -- merge nodes (the chain's "tree") -------------------------------------


@dataclass
class _DenseMergeNode:
    """One dense ``geqr2`` fold — the sharded ``_reduce`` arithmetic."""

    heights: tuple[int, int]  # (carry rows, chunk-R rows)
    VR: np.ndarray
    tau: np.ndarray

    def apply_q_stack(self, stacked: np.ndarray) -> np.ndarray:
        orm2r(self.VR, self.tau, stacked, transpose=False)
        return stacked


@dataclass
class _StructuredMergeNode:
    """One sparsity-aware fold — the tree-node stacked-triangle QR."""

    heights: tuple[int, int]
    factor: StructuredStackFactor

    def apply_q_stack(self, stacked: np.ndarray) -> np.ndarray:
        return self.factor.apply_q(stacked)


def _merge_triangles(r_run: np.ndarray, r_chunk: np.ndarray):
    """Fold a chunk's triangle into the carry; returns ``(node, new_R)``.

    Structured elimination requires the first stacked block to carry the
    pivot rows, so it runs exactly when the carry is already full height
    (``>= n`` rows — the steady state); the start-up folds use the dense
    merge.  Either way ``new_R`` is the ``min(total, n) x n`` triangle
    of the stacked pair — a valid R of the rows seen so far.
    """
    r_b, n = r_run.shape
    kc = r_chunk.shape[0]
    if r_b >= min(n, r_b + kc):
        f = structured_stack_qr([r_run, r_chunk])
        return _StructuredMergeNode(heights=(r_b, kc), factor=f), f.R
    stacked = np.vstack([r_run, r_chunk])
    VR, tau = geqr2(stacked)
    kd = min(stacked.shape[0], n)
    node = _DenseMergeNode(heights=(r_b, kc), VR=VR, tau=tau)
    return node, np.triu(VR[:kd, :])


# -- the retained factorization -------------------------------------------


@dataclass
class _ChunkQR:
    """One chunk's position and (optionally retained) local factors."""

    index: int
    row_start: int
    height: int
    kc: int  # rows its local R contributed to the fold
    factors: object | None  # CAQRFactors when retained


@dataclass
class StreamingCAQRFactors:
    """Implicit Q and explicit R of a streamed CAQR factorization.

    Shares ``R`` and ``form_q`` with
    :class:`~repro.core.caqr.CAQRFactors` but has no ``apply_qt`` /
    ``apply_q``.  ``form_q`` needs the retained per-chunk factors
    (``retain_q=True`` — the default for the in-memory
    ``caqr(path="streaming")`` entry); a soak run retains nothing and
    holds only the carry triangle.
    """

    m: int
    n: int
    chunk_rows: int
    R: np.ndarray  # min(m, n) x n upper trapezoidal
    chunks: list[_ChunkQR]
    merges: list  # merge node per chunk (index 0 is None)
    retained: bool

    def form_q(self, out: np.ndarray | None = None) -> np.ndarray:
        """Form the explicit thin ``m x min(m, n)`` orthonormal Q.

        Walks the merge chain top-down — the exact coefficient walk of
        :meth:`~repro.distributed.sharded.ShardedCAQRFactors.form_q`,
        specialized to a chain: the carry block's coefficients propagate
        backwards through each fold, peeling off every chunk's
        coefficient block, which the chunk's local implicit Q then lifts
        to its row slice.  ``out`` (C-contiguous, Q's shape and dtype)
        receives Q with the same bits and is returned.
        """
        k = min(self.m, self.n)
        dtype = self.R.dtype
        if k and not self.retained:
            raise RuntimeError(
                "form_q needs the retained per-chunk factors; this "
                "factorization ran with retain_q=False (R-only soak mode)"
            )
        Q = q_buffer(out, self.m, k, dtype, zeros=True)
        if k == 0:
            return Q
        carry = np.eye(k, dtype=dtype)
        for i in range(len(self.chunks) - 1, 0, -1):
            node = self.merges[i]
            r_b, kc = node.heights
            stacked = np.zeros((r_b + kc, k), dtype=dtype)
            stacked[: carry.shape[0]] = carry
            node.apply_q_stack(stacked)
            carry = stacked[:r_b]
            c = self.chunks[i]
            block = np.zeros((c.height, k), dtype=dtype)
            block[:kc] = stacked[r_b:]
            c.factors.apply_q(block)
            Q[c.row_start : c.row_start + c.height] = block
        c0 = self.chunks[0]
        block = np.zeros((c0.height, k), dtype=dtype)
        block[: c0.kc] = carry[: c0.kc]
        c0.factors.apply_q(block)
        Q[c0.row_start : c0.row_start + c0.height] = block
        return Q


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
        retain_q: keep every chunk's implicit-Q factors and merge
            reflectors so :meth:`factors` can ``form_q`` — memory then
            grows with the stream.  ``False`` (soak mode) keeps only
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
        self._chunks: list[_ChunkQR] = []
        self._merges: list = []
        self._chunk_plan = None  # reusable plan for full-height chunks
        self._retained_bytes = 0
        self.structured_merges = 0
        self.dense_merges = 0
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
        return len(self._chunks)

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
        idx = len(self._chunks)
        itemsize = self._dtype.itemsize
        resident_before = self.resident_tracked_bytes
        with _obs.span("stream.push", cat="stream", chunk=idx, rows=h):
            with _obs.span("stream.factor", cat="factor", chunk=idx, rows=h):
                f = self._factor_chunk(chunk)
            rc = np.triu(f.R)
            kc = int(rc.shape[0])
            r_b = 0 if self._R is None else int(self._R.shape[0])
            if self._R is None:
                node = None
                self._R = rc
            else:
                with _obs.span(
                    "stream.merge", cat="stream", chunk=idx, carry=r_b, rows=kc
                ):
                    node, self._R = _merge_triangles(self._R, rc)
                if isinstance(node, _StructuredMergeNode):
                    self.structured_merges += 1
                else:
                    self.dense_merges += 1
            self._rows += h
            self._chunks.append(
                _ChunkQR(
                    index=idx,
                    row_start=self._rows - h,
                    height=h,
                    kc=kc,
                    factors=f if self.retain_q else None,
                )
            )
            self._merges.append(node if self.retain_q else None)
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
            chunk_rows=self.policy.chunk_rows,
            R=R,
            chunks=self._chunks,
            merges=self._merges,
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
