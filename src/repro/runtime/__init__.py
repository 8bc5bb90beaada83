"""Runtime policy/plan layer: one object naming *how* a factorization runs.

A Parla-style policy/plan/execute separation:

* :class:`ExecutionPolicy` — a frozen dataclass naming the execution
  path, its geometry, numerics policy and the modeled device/kernel
  configuration.  Every entry point takes ``policy=``.
* :data:`~repro.runtime.policy.PATHS` — the engine table, next to the
  policy that validates against it: each of the eight path names maps
  to one of four engines (look-ahead, CholeskyQR2, sharded, streaming),
  which plans, runs, models and compiles it.  No other module compares
  a path name.
* :func:`plan_qr` / :class:`QRPlan` — everything shape-dependent about a
  factorization (panel partition, TSQR panel schedules, look-ahead task
  DAG, the validated policy) computed once and replayed by
  ``plan.execute(A)`` for repeated bit-identical factorizations;
  ``plan.simulate()`` gives the modeled GPU cost of the same shape.  A
  direct ``caqr(A, policy=p)`` is ``plan_qr(...).factor(A)``.
* :mod:`repro.runtime.cholqr` — the condition guard and tree fallback
  behind the CholeskyQR2 fast paths (``path="cholqr2"`` /
  ``"cholqr2_mixed"`` / ``"auto"``); every accept/reject threshold and
  fallback decision is constructed here and nowhere else (enforced by
  ``tools/lint_layering.py``).

Layering: ``repro.core`` / ``repro.graph`` / ``repro.dispatch`` import
:mod:`repro.runtime.policy` (which only depends on the guard layer);
the engines and :mod:`repro.runtime.plan` import the heavy numeric
modules at call time, so no import cycle exists.
"""

from .cholqr import CholQRFactors, CholQRGuard, count_fallbacks, run_cholqr
from .plan import QRPlan, plan_qr
from .policy import CHOLQR_PATHS, PATH_NAMES, ExecutionPolicy

__all__ = [
    "CHOLQR_PATHS",
    "PATH_NAMES",
    "CholQRFactors",
    "CholQRGuard",
    "ExecutionPolicy",
    "QRPlan",
    "count_fallbacks",
    "plan_qr",
]
