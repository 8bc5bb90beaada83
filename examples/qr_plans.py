"""Execution policies and reusable QR plans.

The streaming regime — factor the same (m, n) shape once per video
chunk, sensor window, or Krylov restart — is where planning pays: an
`ExecutionPolicy` names *how* to execute once, `plan_qr` derives
everything shape-dependent once (panel schedule, reduction trees, the
look-ahead task DAG, compact-WY scratch footprint), and `plan.execute`
replays it per matrix, bit-identical to the one-shot entry point.

Run:  python examples/qr_plans.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import caqr, caqr_qr, plan_qr
from repro.runtime import ExecutionPolicy


def main() -> None:
    rng = np.random.default_rng(0)
    m, n = 40_000, 64

    # One policy object names the path and the geometry.
    policy = ExecutionPolicy(path="lookahead", panel_width=16, block_rows=64)

    plan = plan_qr(m, n, policy=policy)
    print(plan.describe())

    # Bit-identity: the plan drives the same code paths the one-shot
    # entry point uses, so the results are equal to the last bit.
    A = rng.standard_normal((m, n))
    Qp, Rp = plan.execute(A)
    Qd, Rd = caqr_qr(A, policy=policy)
    print("\nbit-identical to caqr_qr:", np.array_equal(Qp, Qd) and np.array_equal(Rp, Rd))

    # The amortized regime: repeated same-shape factorizations skip all
    # planning.  (plan.factor keeps Q implicit, like caqr().)
    frames = [rng.standard_normal((m, n)) for _ in range(4)]
    plan.factor(frames[0])  # warmup
    t0 = time.perf_counter()
    for frame in frames:
        plan.factor(frame)
    t_plan = (time.perf_counter() - t0) / len(frames)

    batched = ExecutionPolicy(panel_width=16, block_rows=64)
    caqr(frames[0], policy=batched)  # warmup
    t0 = time.perf_counter()
    for frame in frames:
        caqr(frame, policy=batched)  # implicit Q, like plan.factor
    t_call = (time.perf_counter() - t0) / len(frames)
    print(f"per-frame: plan.factor {t_plan * 1e3:.1f} ms "
          f"vs one-shot batched caqr {t_call * 1e3:.1f} ms")

    # Shape/dtype are part of the plan's contract.
    try:
        plan.execute(rng.standard_normal((m, n + 1)))
    except ValueError as exc:
        print("wrong shape rejected:", exc)


if __name__ == "__main__":
    main()
