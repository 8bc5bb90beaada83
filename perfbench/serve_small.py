"""serve_small: 256 x 32 QR requests from 4 tenants into a default QRServer.

Phase 1 is an open loop at a fixed 1000 req/s from one generator
thread; each request is timed from the moment it was due, and the
generator's own lateness is recorded.  Phase 2 drives the server at
saturation through a bounded in-flight window and reports completed
requests per second.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.dispatch import QRDispatcher
from repro.serving import QRServer, ServingPlan, stacked_qr
from repro.verify.guards import validate_matrix

from harness import Spans, median, tail

WHY = (
    "64 KB requests that fit in cache, so time goes to per-request overhead and "
    "queueing (guards, dispatch, coalescing), which the flop-bound workloads hide"
)
M, N = 256, 32
TENANTS = 4
POOL = 64
RATE = 1000.0
WINDOW = 64
CHECK_EVERY = 50
WAIT_S = 60.0
ROUND_OPEN_S = 0.5  # open-loop part of a round: 500 requests at RATE
ROUND_SAT_S = 0.2  # saturation part of a round
LEDGER_SECONDS = 4.2  # six rounds


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"pool": [rng.standard_normal((M, N)) for _ in range(POOL)]}


def setup(inputs: dict) -> dict:
    return {"server": QRServer()}


def cold(state: dict, inputs: dict) -> None:
    state["server"].submit(inputs["pool"][0], tenant="t0").result(timeout=WAIT_S)


def teardown(state: dict) -> None:
    state["server"].close()


def _request(pool, i):
    return pool[i % POOL], f"t{i % TENANTS}"


def _warm(server, pool) -> None:
    """Fill plan caches and exercise the stacked path, untimed."""
    for i in range(2 * WINDOW):
        A, tenant = _request(pool, i)
        server.submit(A, tenant=tenant)
    server.submit(pool[0]).result(timeout=WAIT_S)


def open_loop(server, pool, seconds: float, keep_every: int = 0):
    """Send at RATE on a fixed schedule; time each request from its due time.

    Completions are recorded by done-callbacks, which keep only the
    sampled results, so finished requests are not held in memory.
    """
    count = max(1, int(RATE * seconds))
    due = np.empty(count)
    done = np.full(count, np.nan)
    late = np.empty(count)
    kept = []
    lock = threading.Lock()
    state = {"open": count, "failed": 0}
    all_done = threading.Event()

    def finished(i, fut):
        done[i] = time.perf_counter()
        with lock:
            if fut.exception() is not None:
                state["failed"] += 1
                done[i] = np.nan
            elif keep_every and i % keep_every == 0:
                res = fut.result()
                kept.append((i, res.Q.copy(), res.R.copy()))
            state["open"] -= 1
            if state["open"] == 0:
                all_done.set()

    t0 = time.perf_counter() + 0.005
    for i in range(count):
        due[i] = t0 + i / RATE
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late[i] = time.perf_counter() - due[i]
        A, tenant = _request(pool, i)
        try:
            fut = server.submit(A, tenant=tenant)
        except Exception:
            with lock:
                state["failed"] += 1
                state["open"] -= 1
                if state["open"] == 0:
                    all_done.set()
            continue
        fut.add_done_callback(lambda f, i=i: finished(i, f))
    all_done.wait(WAIT_S)
    lat = (done - due) * 1e3
    return {"count": count, "failed": state["failed"] + state["open"],
            "lat_ms": lat[~np.isnan(lat)], "late_ms": late * 1e3, "kept": kept}


def saturate(server, pool, seconds: float):
    """Closed loop at capacity: bursts of WINDOW concurrent requests.

    Each burst submits WINDOW requests back to back and waits for all of
    them, so at most WINDOW are in flight and the server's queue is never
    empty while the burst drains.  The rate is the median over bursts of
    WINDOW / burst time.
    """
    rates = []
    sent = failed = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        t0 = time.perf_counter()
        futures = []
        for _ in range(WINDOW):
            A, tenant = _request(pool, sent)
            sent += 1
            try:
                futures.append(server.submit(A, tenant=tenant))
            except Exception:
                failed += 1
        for fut in futures:
            try:
                fut.result(timeout=WAIT_S)
            except Exception:
                failed += 1
        rates.append(WINDOW / (time.perf_counter() - t0))
    return {"sent": sent, "failed": failed, "qps": median(rates), "bursts": len(rates)}


def _bit_check(pool, kept) -> int:
    """Sampled server results against the uncoalesced dispatcher, bit for bit."""
    dispatcher = QRDispatcher()
    bad = 0
    for i, Q, R in kept:
        ref = dispatcher.qr(pool[i % POOL])
        bad += not (np.array_equal(Q, ref.Q) and np.array_equal(R, ref.R))
    return bad


def run_rounds(server, pool, seconds: float, keep_every: int = 0) -> dict:
    """Alternate the two phases in rounds; report each metric's median over rounds.

    A round is ROUND_OPEN_S of open loop at RATE followed by ROUND_SAT_S
    of saturation bursts.  Interleaving keeps a slow stretch of the host
    from landing on one phase only, and the median over rounds keeps it
    from deciding the run.  A round's tail is the highest percentile with
    10 requests beyond it (p98 of 500).
    """
    n_rounds = max(3, round(seconds / (ROUND_OPEN_S + ROUND_SAT_S)))
    per = {"p50": [], "tail": [], "late": [], "qps": []}
    totals = {"count": 0, "sent": 0, "failed": 0, "lat": 0}
    kept, late_all = [], []
    for r in range(n_rounds):
        ol = open_loop(server, pool, ROUND_OPEN_S, keep_every=keep_every)
        sat = saturate(server, pool, ROUND_SAT_S)
        per["p50"].append(median(ol["lat_ms"]))
        per["tail"].append(tail(ol["lat_ms"])[0])
        per["late"].append(tail(ol["late_ms"])[0])
        per["qps"].append(sat["qps"])
        kept += ol["kept"]
        late_all.append(ol["late_ms"])
        totals["count"] += ol["count"]
        totals["sent"] += sat["sent"]
        totals["failed"] += ol["failed"] + sat["failed"]
        totals["lat"] += len(ol["lat_ms"])
    return {
        "rounds": n_rounds,
        "p50_ms": median(per["p50"]),
        "tail_ms": median(per["tail"]),
        "tail_label": f"median over {n_rounds} rounds of {tail(ol['lat_ms'])[1]}",
        "late_ms": median(per["late"]),
        "late_p50_ms": median(np.concatenate(late_all)),
        "qps": median(per["qps"]),
        "per_round": per,
        "kept": kept,
        **totals,
    }


def measure(state: dict, inputs: dict, seconds: float, spans: Spans) -> dict:
    server, pool = state["server"], inputs["pool"]
    _warm(server, pool)
    before = server.stats()
    res = run_rounds(server, pool, seconds, keep_every=CHECK_EVERY)
    after = server.stats()
    bad = _bit_check(pool, res["kept"])
    n = res["rounds"]
    return {
        "attempted": res["count"] + res["sent"],
        "failed": res["failed"] + bad,
        "named": {
            "serve_p50_ms": (res["p50_ms"], "ms", f"median over {n} rounds, {res['lat']} "
                                                  "open-loop requests timed from due time"),
            "serve_tail_ms": (res["tail_ms"], "ms", res["tail_label"]),
            "serve_qps": (res["qps"], "1/s", f"median over {n} rounds of bursts of {WINDOW}"),
            "serve_late_ms": (res["late_ms"], "ms", res["tail_label"] + ", generator lateness"),
        },
        "generic": {"op_p50_ms": res["p50_ms"], "op_tail_ms": res["tail_ms"],
                    "work_per_s": res["qps"]},
        "samples": res["lat"],
        "notes": {
            "late_p50_ms": res["late_p50_ms"],
            "per_round": res["per_round"],
            "bit_checked": len(res["kept"]),
            "bit_mismatches": bad,
            "check": f"every {CHECK_EVERY}th open-loop result bit-identical to QRDispatcher.qr",
            "stats_delta": {k: v - before.as_dict()[k] for k, v in after.as_dict().items()},
        },
    }


def ledger(inputs: dict, roof: dict, spans: Spans) -> dict:
    pool = inputs["pool"]
    server = QRServer()
    try:
        _warm(server, pool)
        before = server.stats().as_dict()
        res = run_rounds(server, pool, LEDGER_SECONDS)
        after = server.stats().as_dict()
    finally:
        server.close()
    d = {k: after[k] - before[k] for k in after}
    batch = d["coalesced_requests"] / max(d["coalesced_batches"], 1)
    B = max(2, round(batch))

    dispatcher = QRDispatcher()
    plan = ServingPlan(M, N, np.float64, dispatcher.policy)
    mats = [pool[i] for i in range(B)]
    ref = [dispatcher.qr(A) for A in mats]
    mismatches = 0
    reps = 30
    for _ in range(reps):
        with spans.span("serve.batch"):
            for A in mats:
                with spans.span("guards.validate_submit"):
                    validate_matrix(A, where="QRServer.submit", nonfinite="propagate")
            with spans.span("serving.stacked_qr"):
                Q, R = stacked_qr(mats, plan)
        mismatches += not all(
            np.array_equal(Q[i], r.Q) and np.array_equal(R[i], r.R) for i, r in enumerate(ref)
        )
    scan = []
    for _ in range(200):
        t0 = time.perf_counter()
        validate_matrix(pool[0], where="QRDispatcher.qr")
        scan.append(time.perf_counter() - t0)
    for i in range(100):
        with spans.span("dispatch.qr"):
            dispatcher.qr(pool[i % POOL])
    per_request_traced = spans.med("serve.batch") / B
    per_request_layers = (
        spans.med("serving.stacked_qr") + B * spans.med("guards.validate_submit")
    ) / B
    per_request_untraced = 1.0 / res["qps"]
    completed = max(d["completed"], 1)
    layers = {
        "guards.validate_us": median(scan) * 1e6,
        "serving.batch_size": batch,
        "serving.coalesced_frac": d["coalesced_requests"] / completed,
        "serving.stacked_qr_ms": spans.med("serving.stacked_qr") * 1e3,
        "dispatch.qr_ms": spans.med("dispatch.qr") * 1e3,
        "serving.rejected": float(d["rejected"]),
        "serving.shed": float(d["shed"]),
        "serve_late_ms": res["late_ms"],
        "serve.p50_ms": res["p50_ms"],
        "serve.tail_ms": res["tail_ms"],
        "serve.qps": res["qps"],
        "coverage.serve": per_request_layers / per_request_untraced,
        "overhead.serve_ms": (per_request_traced - per_request_untraced) * 1e3,
    }
    return {
        "layers": layers,
        "attempted": reps + res["count"] + res["sent"],
        "failed": mismatches + res["failed"],
        "notes": {"stacked_batch": B, "saturation_qps": res["qps"],
                  "open_loop_p50_ms": res["p50_ms"],
                  "coverage_basis": "per-request layer time at the mean batch size over 1/serve_qps"},
    }
