"""The streaming pipeline compiled to shared task-graph layers.

:func:`emit_streaming_layers` is the ``streaming`` producer registered
in :data:`repro.graph.highlevel.PRODUCERS`: one ``ingest`` layer (the
chunk cuts), one ``factor`` layer (per-chunk local CAQR — mutually
independent, so a threaded executor may overlap them), and one ``fold``
layer whose chain of carry merges is the serial spine.  Unbound, the
graph is the structural shape the CI fingerprint gate pins; bound, its
tasks perform exactly the arithmetic of
:func:`repro.streaming.qr.run_streaming_matrix`, so the graph execution
is bit-identical to the direct streaming run.
"""

from __future__ import annotations

import numpy as np

from repro.obs import tracer as _obs

from .qr import (
    StreamingCAQRFactors,
    StreamSchedule,
    _chunk_factor,
    _merge_triangles,
    build_stream_schedule,
    chunk_policy,
)

__all__ = ["emit_streaming_layers", "run_streaming_graph"]


def emit_streaming_layers(
    m: int,
    n: int,
    chunk_rows: int,
    bind: dict | None = None,
    schedule: StreamSchedule | None = None,
):
    """Compile the streaming chunk/factor/fold pipeline into layers.

    Keys are ``("chunk", i)`` / ``("factor", i)`` / ``("fold", i)``;
    every fold depends on its chunk's factor and on the previous fold,
    making the bounded-carry chain explicit while leaving the per-chunk
    factorizations free to overlap.  Without ``bind`` the graph is
    structural (``fn=None``).  With ``bind`` (a state dict holding
    ``A``, ``policy``, the inner per-chunk policy ``inner`` plus empty
    ``chunks`` / ``rfac`` / ``nodes`` dicts, as set up by
    :func:`run_streaming_graph`), tasks carry closures performing the direct runner's exact
    arithmetic; the final fold leaves the carry in ``bind["R"]``.
    """
    from repro.graph.highlevel import TaskGraph

    if schedule is None:
        schedule = build_stream_schedule(m, n, chunk_rows)
    st = bind
    tg = TaskGraph(name="streaming")
    tg.add_layer("ingest", priority=2)
    tg.add_layer("factor", priority=1, cost=float(chunk_rows * max(n, 1)))
    tg.add_layer("fold", cost=float(max(n, 1) ** 2))

    def mk_chunk(i: int, s: int, e: int):
        def run() -> None:
            st["chunks"][i] = st["A"][s:e]

        return run

    def mk_factor(i: int):
        def run() -> None:
            with _obs.span("stream.factor", cat="factor", chunk=i):
                f = _chunk_factor(st["chunks"][i], st["inner"])
            st["rfac"][i] = (f, np.triu(f.R))

        return run

    def mk_fold(i: int):
        def run() -> None:
            f, rc = st["rfac"][i]
            if i == 0:
                st["nodes"][i] = None
                st["R"] = rc
                return
            with _obs.span("stream.merge", cat="stream", chunk=i):
                node, st["R"] = _merge_triangles(st["R"], rc)
            st["nodes"][i] = node

        return run

    def payload(f):
        return f if st is not None else None

    for i, (s, e) in enumerate(schedule.rows):
        tg.add_task("ingest", ("chunk", i), payload(mk_chunk(i, s, e)), rows=(s, e))
        tg.add_task("factor", ("factor", i), payload(mk_factor(i)), deps=(("chunk", i),))
        deps = (("factor", i),) if i == 0 else (("factor", i), ("fold", i - 1))
        tg.add_task("fold", ("fold", i), payload(mk_fold(i)), deps=deps)
    return tg


def run_streaming_graph(A: np.ndarray, policy, workers: int = 1) -> StreamingCAQRFactors:
    """:func:`~repro.streaming.qr.run_streaming_matrix` compiled to a task
    graph and run on the shared executor.

    Identical arithmetic fold for fold, so ``R`` is bit-identical to the
    direct streaming run; ``workers > 1`` overlaps chunk factorizations
    ahead of the serial fold spine.  Returns an R-only (non-retained)
    factor object — the graph form is the scheduling/parity surface,
    not a second Q-reconstruction engine.
    """
    from repro.graph.executor import run_task_graph

    m, n = A.shape
    schedule = build_stream_schedule(m, n, policy.chunk_rows)
    inner = chunk_policy(policy, n)
    st: dict = {"A": A, "policy": policy, "inner": inner, "chunks": {}, "rfac": {}, "nodes": {}}
    with _obs.span(
        "streaming", cat="stream", m=m, n=n, chunk_rows=policy.chunk_rows
    ):
        tg = emit_streaming_layers(m, n, policy.chunk_rows, bind=st, schedule=schedule)
        run_task_graph(tg, workers=workers)
        k = min(m, n)
        R = np.zeros((k, n), dtype=A.dtype)
        if "R" in st:
            R[: st["R"].shape[0]] = st["R"][:k]
    return StreamingCAQRFactors(
        m=m,
        n=n,
        chunk_rows=policy.chunk_rows,
        R=R,
        chunks=[],
        merges=[],
        retained=False,
    )
