"""Streaming / out-of-core pipeline: bounded-memory QR and RPCA.

The "heavy sustained traffic" tier (ROADMAP item 5): chunked ingestion
of unbounded row streams (:mod:`~repro.streaming.ingest`), incremental
row-append QR reusing the in-core CAQR machinery and the tree-node
eliminations (:mod:`~repro.streaming.qr`), the pipeline's structural
task-graph layers (:mod:`~repro.streaming.graphs`), and a
drift-adaptive online video background model
(:mod:`~repro.streaming.background`).

Entry points: ``stream_qr`` for iterables, ``caqr(A,
policy=ExecutionPolicy(path="streaming", chunk_rows=...))`` or a
``plan_qr`` plan for in-memory matrices, ``StreamingBackground`` for
video.
"""

from .background import BackgroundChunk, StreamingBackground
from .graphs import emit_streaming_layers
from .ingest import ChunkBuffer, StreamBackpressure, stream_chunks
from .qr import (
    DEFAULT_CHUNK_ROWS,
    StreamingCAQRFactors,
    StreamingQR,
    StreamSchedule,
    build_stream_schedule,
    run_streaming_matrix,
    stream_qr,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "BackgroundChunk",
    "ChunkBuffer",
    "StreamBackpressure",
    "StreamSchedule",
    "StreamingBackground",
    "StreamingCAQRFactors",
    "StreamingQR",
    "build_stream_schedule",
    "emit_streaming_layers",
    "run_streaming_matrix",
    "stream_chunks",
    "stream_qr",
]
