"""stream_soak: seeded 2048-row blocks of width 64 through ``stream_qr``.

One producer, closed loop: ``stream_qr`` pulls the next block only after
the previous one was re-blocked (and, every second block, a 4096-row
chunk was folded in).  Block height deliberately differs from
``chunk_rows`` so ingest re-blocking runs.  One operation is one stream
of ``BLOCKS`` blocks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime.policy import ExecutionPolicy
from repro.streaming import stream_chunks, stream_qr

from harness import Spans, median, tail

WHY = (
    "out-of-core path: a few MB resident against an 88 MB paper matrix; the only "
    "workload through streaming.ingest and streaming.qr"
)
BLOCK_ROWS, N = 2048, 64
CHUNK_ROWS = 4096
POOL = 16
BLOCKS = 32
GRAM_ERR_MAX = 1e-12
LEDGER_REPS = 3


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pool = [rng.standard_normal((BLOCK_ROWS, N)) for _ in range(POOL)]
    order = rng.integers(0, POOL, size=BLOCKS).tolist()
    # The check's reference: sum of B^T B over a second, untimed pass
    # through the same seeded block sequence.
    gram = np.zeros((N, N))
    for j in order:
        gram += pool[j].T @ pool[j]
    return {"pool": pool, "order": order, "gram": gram}


def policy() -> ExecutionPolicy:
    return ExecutionPolicy(path="streaming", chunk_rows=CHUNK_ROWS)


def setup(inputs: dict) -> dict:
    return {"policy": policy()}


def _source(inputs: dict):
    pool = inputs["pool"]
    return (pool[j] for j in inputs["order"])


def cold(state: dict, inputs: dict) -> None:
    stream_qr(_source(inputs), state["policy"])


def teardown(state: dict) -> None:
    pass


def _check(sq, gram) -> tuple[bool, float]:
    R = sq.R
    err = float(np.linalg.norm(R.T @ R - gram) / np.linalg.norm(gram))
    ok = err <= GRAM_ERR_MAX and sq.rows_seen == BLOCKS * BLOCK_ROWS
    return bool(ok), err


def measure(state: dict, inputs: dict, seconds: float, spans: Spans) -> dict:
    pol, gram = state["policy"], inputs["gram"]
    stream_qr(_source(inputs), pol)  # warm, untimed
    times = []
    attempted = failed = 0
    worst = 0.0
    resident = 0
    deadline = time.perf_counter() + 4 * seconds + 30  # in case every call raises
    while sum(times) < seconds and time.perf_counter() < deadline:  # checks are untimed
        attempted += 1
        try:
            t0 = time.perf_counter()
            sq = stream_qr(_source(inputs), pol)
            dt = time.perf_counter() - t0
        except Exception:
            failed += 1
            continue
        times.append(dt)
        ok, err = _check(sq, gram)
        worst = max(worst, err)
        resident = max(resident, sq.peak_tracked_bytes)
        failed += not ok
    rows = BLOCKS * BLOCK_ROWS
    rate = rows * len(times) / sum(times)
    p50 = median(times)
    tail_s, tail_label = tail(times)
    return {
        "attempted": attempted,
        "failed": failed,
        "named": {"stream_rows_per_s": (rate, "1/s", f"{len(times)} streams of {rows} rows")},
        "generic": {"op_p50_ms": p50 * 1e3, "op_tail_ms": tail_s * 1e3, "work_per_s": rate},
        "samples": len(times),
        "notes": {"op_tail": tail_label, "max_gram_rel_err": worst, "peak_tracked_mb": resident / 2**20,
                  "check": f"||R^TR - sum B^TB||_F / ||sum B^TB||_F <= {GRAM_ERR_MAX}"},
    }


def ledger(inputs: dict, roof: dict, spans: Spans) -> dict:
    reps = LEDGER_REPS
    pol = policy()
    stream_qr(_source(inputs), pol)  # warm
    base, ref = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        ref = stream_qr(_source(inputs), pol)
        base.append(time.perf_counter() - t0)
    mismatches = 0
    for _ in range(reps):
        with spans.span("stream.op"):
            sq = stream_qr(iter(()), pol)  # an empty stream: a fresh engine
            chunks = stream_chunks(_source(inputs), CHUNK_ROWS, nonfinite=pol.nonfinite)
            while True:
                with spans.span("ingest.rechunk"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                with spans.span("streaming.push"):
                    sq.push(chunk, validated=True)
        mismatches += not np.array_equal(sq.R, ref.R)
    b = median(base)
    per_op = sum(spans.durations("ingest.rechunk")) + sum(spans.durations("streaming.push"))
    layers = {
        "stream.rows_per_s": BLOCKS * BLOCK_ROWS / b,
        "ingest.rechunk_s": spans.med("ingest.rechunk"),
        "streaming.push_s": spans.med("streaming.push"),
        "streaming.resident_mb": sq.resident_tracked_bytes / 2**20,
        "streaming.peak_tracked_mb": sq.peak_tracked_bytes / 2**20,
        "streaming.chunks": float(sq.n_chunks),
        "coverage.stream": per_op / reps / b,
        "overhead.stream_s": spans.med("stream.op") - b,
    }
    return {
        "layers": layers,
        "attempted": reps,
        "failed": mismatches,
        "notes": {"untraced_stream_s": b, "rows_per_stream": BLOCKS * BLOCK_ROWS},
    }
