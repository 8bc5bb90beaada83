"""qr_paper: explicit thin QR at the paper's 110592 x 100 through one ``auto`` plan.

Closed loop, one caller.  Inputs cycle through a fixed interleave of
three Gaussian matrices and one graded matrix ``G diag(logspace(0, -12,
100)) V`` (``V`` random orthogonal, so column equilibration cannot undo
the grading).  The guard admits the Gaussian inputs to CholeskyQR2 and
rejects the graded one, which then runs on the look-ahead Householder
tree.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.cholesky_qr import CholeskyBreakdownError
from repro.runtime.cholqr import count_fallbacks
from repro.runtime.plan import plan_qr
from repro.runtime.policy import ExecutionPolicy
from repro.verify.guards import validate_matrix

from harness import Spans, median, roofline_frac, tail

WHY = (
    "paper shape through the auto guard both ways: 3 Gaussian inputs take "
    "CholeskyQR2, 1 graded (cond 1e12) input falls back to the Householder tree"
)
M, N = 110592, 100
FERR_MAX = 1e-12
ORTH_MAX = 1e-12
CHECK_ROWS = 8192
# At least 12 interleave cycles: with 12 of 48 calls rejected, the tail
# (the 11th-slowest call) is a fallback, so op_tail_ms gates the tree path.
MIN_CALLS = 48
LEDGER_REPS = 3


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((M, N)) for _ in range(3)]
    V, _ = np.linalg.qr(rng.standard_normal((N, N)))
    graded = (rng.standard_normal((M, N)) * np.logspace(0, -12, N)) @ V
    mats.append(graded)  # the interleave: G, G, G, graded, G, G, G, graded, ...
    return {"mats": mats, "norms": [float(np.linalg.norm(a)) for a in mats]}


def cold_inputs(seed: int) -> dict:
    """The first input of the sequence only (all a cold set-up touches)."""
    return {"mats": [np.random.default_rng(seed).standard_normal((M, N))]}


def setup(inputs: dict) -> dict:
    return {"plan": plan_qr(M, N, np.float64, ExecutionPolicy(path="auto"))}


def cold(state: dict, inputs: dict) -> None:
    state["plan"].execute(inputs["mats"][0])


def teardown(state: dict) -> None:
    pass


def _check(A, Q, R, norm_a) -> tuple[bool, float, float]:
    # A - QR in row blocks, so the check never holds an m x n temporary
    # and cannot set the measured peak resident set.
    sq = 0.0
    for r0 in range(0, M, CHECK_ROWS):
        E = Q[r0:r0 + CHECK_ROWS] @ R
        E -= A[r0:r0 + CHECK_ROWS]
        sq += float(np.vdot(E, E))
    ferr = math.sqrt(sq) / norm_a
    G = Q.T @ Q
    G[np.diag_indices_from(G)] -= 1.0
    orth = float(np.linalg.norm(G))
    return bool(ferr <= FERR_MAX and orth <= ORTH_MAX), ferr, orth


def measure(state: dict, inputs: dict, seconds: float, spans: Spans) -> dict:
    plan = state["plan"]
    mats, norms = inputs["mats"], inputs["norms"]
    for A in (mats[0], mats[3]):  # warm both paths once, untimed
        plan.execute(A)
    fast, fallback = [], []
    attempted = failed = 0
    worst = [0.0, 0.0]
    deadline = time.perf_counter() + 4 * seconds + 30  # in case every call raises
    with count_fallbacks() as fb:
        # Whole interleave cycles until the timed calls add up to
        # ``seconds`` and there are MIN_CALLS of them; the checks between
        # calls are outside that budget.
        while (attempted % 4 or attempted < MIN_CALLS
               or sum(fast) + sum(fallback) < seconds) and time.perf_counter() < deadline:
            A, norm_a = mats[attempted % 4], norms[attempted % 4]
            before = fb.fallbacks
            attempted += 1
            try:
                t0 = time.perf_counter()
                Q, R = plan.execute(A)
                dt = time.perf_counter() - t0
            except Exception:
                failed += 1
                continue
            (fallback if fb.fallbacks > before else fast).append(dt)
            ok, ferr, orth = _check(A, Q, R, norm_a)
            worst = [max(worst[0], ferr), max(worst[1], orth)]
            failed += not ok
            del Q, R
    every = fast + fallback
    fast_s, fallback_s = median(fast), median(fallback)
    tail_s, tail_label = tail(every)
    return {
        "attempted": attempted,
        "failed": failed,
        "named": {
            "qr_fast_s": (fast_s, "s", f"median of {len(fast)} admitted"),
            "qr_fallback_s": (fallback_s, "s", f"median of {len(fallback)} rejected"),
            "qr_tail_s": (tail_s, "s", tail_label + " (all calls)"),
        },
        "generic": {
            "op_p50_ms": median(every) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "work_per_s": len(every) / sum(every),
        },
        "samples": len(every),
        "notes": {"max_ferr": worst[0], "max_orth": worst[1],
                  "check": f"||A-QR||/||A|| <= {FERR_MAX}, ||Q^TQ-I||_F <= {ORTH_MAX}"},
    }


def ledger(inputs: dict, roof: dict, spans: Spans) -> dict:
    """Per-layer costs, rebuilt from layer calls and checked bit-for-bit."""
    reps = LEDGER_REPS
    mats = inputs["mats"]
    G, H = mats[0], mats[3]
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        auto = plan_qr(M, N, np.float64, ExecutionPolicy(path="auto"))
        builds.append(time.perf_counter() - t0)
    tree = plan_qr(M, N, np.float64, ExecutionPolicy(path="lookahead"))
    strict = plan_qr(M, N, np.float64, ExecutionPolicy(path="cholqr2"))

    # Untraced reference: the public call, timed and kept for bit checks.
    ref, base = {}, {"fast": [], "fallback": []}
    for _ in range(reps):
        for key, A in (("fast", G), ("fallback", H)):
            t0 = time.perf_counter()
            ref[key] = auto.execute(A)
            base[key].append(time.perf_counter() - t0)
    # One interleave cycle (3 admitted : 1 rejected), counted by the guard.
    with count_fallbacks() as fb:
        for A in mats:
            auto.execute(A)
    fallback_ratio = fb.fallbacks / len(mats)

    mismatches = 0
    for _ in range(reps):
        with spans.span("qr.fast"):
            with spans.span("guards.validate"):
                Av = validate_matrix(G, where="QRPlan.execute")
            with spans.span("cholqr.factor"):
                f = auto.factor(Av, validated=True)
            with spans.span("form_q.fast"):
                Q, R = f.form_q(), f.R
        mismatches += not (np.array_equal(Q, ref["fast"][0]) and np.array_equal(R, ref["fast"][1]))
        del f, Q, R
        with spans.span("qr.fallback"):
            with spans.span("guards.validate"):
                Av = validate_matrix(H, where="QRPlan.execute")
            with spans.span("cholqr.reject"):
                try:
                    strict.factor(Av, validated=True)
                    mismatches += 1  # the strict guard must refuse this input
                except CholeskyBreakdownError:
                    pass
            with spans.span("tree.factor"):
                f = tree.factor(Av, validated=True)
            with spans.span("form_q.tree"):
                Q, R = f.form_q(), f.R
        mismatches += not (
            np.array_equal(Q, ref["fallback"][0]) and np.array_equal(R, ref["fallback"][1])
        )
        del f, Q, R

    m, n = M, N
    validate_s = spans.med("guards.validate")
    chol_s = spans.med("cholqr.factor")
    tree_s = spans.med("tree.factor")
    chol_flops = 4.0 * m * n * n
    tree_flops = 2.0 * m * n * n - 2.0 * n**3 / 3.0
    fast_base, fb_base = median(base["fast"]), median(base["fallback"])
    fast_traced, fb_traced = spans.med("qr.fast"), spans.med("qr.fallback")
    fast_cover = validate_s + chol_s + spans.med("form_q.fast")
    fb_cover = validate_s + spans.med("cholqr.reject") + tree_s + spans.med("form_q.tree")
    layers = {
        "plan.build_s": median(builds),
        "guards.validate_s": validate_s,
        "guards.scan_gbps": G.nbytes / validate_s / 1e9,
        "cholqr.factor_s": chol_s,
        "cholqr.gflops": chol_flops / chol_s / 1e9,
        # computed bytes: scale read, divide read+write, Gram read, trmm read+write
        "cholqr.roofline_frac": roofline_frac(chol_flops, 6.0 * m * n * 8, chol_s, roof),
        "cholqr.fallback_ratio": fallback_ratio,
        # auto's factor on a rejected input minus the tree path's own work
        "cholqr.reject_overhead_s": fb_base - (validate_s + tree_s + spans.med("form_q.tree")),
        "cholqr.reject_s": spans.med("cholqr.reject"),
        "tree.factor_s": tree_s,
        "tree.gflops": tree_flops / tree_s / 1e9,
        # computed bytes: working copy write + one read+write sweep of A
        "tree.roofline_frac": roofline_frac(tree_flops, 3.0 * m * n * 8, tree_s, roof),
        "form_q.tree_s": spans.med("form_q.tree"),
        "form_q.fast_s": spans.med("form_q.fast"),
        "coverage.qr_fast": fast_cover / fast_base,
        "coverage.qr_fallback": fb_cover / fb_base,
        "overhead.qr_fast_s": fast_traced - fast_base,
        "overhead.qr_fallback_s": fb_traced - fb_base,
    }
    return {
        "layers": layers,
        "attempted": 2 * reps,
        "failed": mismatches,
        "notes": {
            "untraced_fast_s": fast_base,
            "untraced_fallback_s": fb_base,
            "flops": "cholqr 4mn^2; tree 2mn^2-2n^3/3",
        },
    }
