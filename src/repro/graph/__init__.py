"""The task-graph description of the paper's pipelines, and its consumers.

The paper's host driver is a *serial* stream of kernel launches, but the
data dependencies between them are much looser: ``factor(k+1)`` only
needs the first trailing tile of panel ``k``, and trailing-update
launches for disjoint column tiles are mutually independent.  This
subsystem makes those dependencies explicit, in one structural form:

* :mod:`repro.graph.highlevel` — the dask-style :class:`TaskGraph` of
  named :class:`Layer` s with key-based cross-layer dependencies and
  per-layer annotations (stream hint, cost, device), plus the
  :data:`PRODUCERS` registry of everything that compiles to it (CAQR,
  the look-ahead numeric DAG, the sharded R-reduction, the streaming
  chunk pipeline).  A graph describes; it carries no payloads.
* :mod:`repro.graph.order` — the deterministic critical-path static
  ordering pass every consumer schedules by (à la ``dask/order.py``).
* :mod:`repro.graph.dag` — :func:`emit_caqr_layers` compiles
  :func:`repro.caqr_gpu.enumerate_caqr_launches` into panel/tree/
  trailing layers (the serial enumeration is untouched, so launch-stream
  fingerprints and calibration cannot move).
* :mod:`repro.graph.overlap` — list-schedules the task graph onto S
  concurrent streams with :mod:`repro.gpusim.concurrent` and reports
  modeled overlap seconds next to serial seconds and the critical path.
* :mod:`repro.graph.executor` — the look-ahead CAQR driver: it runs its
  panel factors and trailing updates on one thread, in its graph's
  static order.
"""

from .dag import emit_caqr_layers
from .executor import emit_lookahead_layers
from .highlevel import PRODUCERS, Layer, LayerAnnotations, Task, TaskGraph, producer, producers
from .order import critical_path_lengths, order_fingerprint, static_order
from .overlap import OverlapResult, simulate_caqr_overlap

__all__ = [
    "emit_caqr_layers",
    "emit_lookahead_layers",
    "PRODUCERS",
    "Layer",
    "LayerAnnotations",
    "Task",
    "TaskGraph",
    "producer",
    "producers",
    "critical_path_lengths",
    "order_fingerprint",
    "static_order",
    "OverlapResult",
    "simulate_caqr_overlap",
]
