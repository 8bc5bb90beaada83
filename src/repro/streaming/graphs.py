"""The streaming pipeline compiled to shared task-graph layers.

:func:`emit_streaming_layers` is the ``streaming`` producer registered
in :data:`repro.graph.highlevel.PRODUCERS`: one ``ingest`` layer (the
chunk cuts), one ``factor`` layer (per-chunk local CAQR — mutually
independent), and one ``fold`` layer whose chain of carry merges is the
serial spine.  The graph is structural: it is the shape
``QRPlan.task_graph()`` returns for a streaming plan and the CI
fingerprint gate pins, and :func:`repro.streaming.qr.run_streaming_matrix`
runs the same chunk schedule.
"""

from __future__ import annotations

from .qr import StreamSchedule, build_stream_schedule

__all__ = ["emit_streaming_layers"]


def emit_streaming_layers(
    m: int,
    n: int,
    chunk_rows: int,
    schedule: StreamSchedule | None = None,
):
    """Compile the streaming chunk/factor/fold pipeline into layers.

    Keys are ``("chunk", i)`` / ``("factor", i)`` / ``("fold", i)``;
    every fold depends on its chunk's factor and on the previous fold,
    making the bounded-carry chain explicit while leaving the per-chunk
    factorizations free to overlap.
    """
    from repro.graph.highlevel import TaskGraph

    if schedule is None:
        schedule = build_stream_schedule(m, n, chunk_rows)
    tg = TaskGraph(name="streaming")
    tg.add_layer("ingest", priority=2)
    tg.add_layer("factor", priority=1, cost=float(chunk_rows * max(n, 1)))
    tg.add_layer("fold", cost=float(max(n, 1) ** 2))
    for i, (s, e) in enumerate(schedule.rows):
        tg.add_task("ingest", ("chunk", i), rows=(s, e))
        tg.add_task("factor", ("factor", i), deps=(("chunk", i),))
        deps = (("factor", i),) if i == 0 else (("factor", i), ("fold", i - 1))
        tg.add_task("fold", ("fold", i), deps=deps)
    return tg
