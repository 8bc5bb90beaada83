"""High-level task-graph engine shared by the paper's pipelines.

The paper's host driver is a *serial* stream of kernel launches, but the
data dependencies between them are much looser: ``factor(k+1)`` only
needs the first trailing tile of panel ``k``, and trailing-update
launches for disjoint column tiles are mutually independent.  This
subsystem makes those dependencies explicit — and, since PR 9, generic:

* :mod:`repro.graph.highlevel` — the dask-style :class:`TaskGraph` of
  named :class:`Layer` s with key-based cross-layer dependencies and
  per-layer annotations (stream hint, cost, device), plus the
  :data:`PRODUCERS` registry of everything that compiles to it (CAQR,
  the look-ahead numeric DAG, rSVD, RPCA/IALM, sharded R-reduction).
* :mod:`repro.graph.order` — the deterministic critical-path static
  ordering pass every consumer schedules by (à la ``dask/order.py``).
* :mod:`repro.graph.dag` — :func:`emit_caqr_layers` compiles
  :func:`repro.caqr_gpu.enumerate_caqr_launches` into panel/tree/
  trailing layers (the serial enumeration is untouched, so launch-stream
  fingerprints and calibration cannot move); :func:`caqr_launch_graph`
  lowers them to positional :class:`LaunchNode` s.
* :mod:`repro.graph.overlap` — list-schedules the task graph onto S
  concurrent streams with :mod:`repro.gpusim.concurrent` and reports
  modeled overlap seconds next to serial seconds.
* :mod:`repro.graph.executor` — executes task graphs numerically
  (:func:`run_task_graph`), serially in static order or on a
  dependency-counting thread pool, bit-identically either way; the
  look-ahead CAQR driver rides it.
"""

from .dag import (
    LaunchGraph,
    LaunchNode,
    caqr_launch_graph,
    emit_caqr_layers,
)
from .executor import (
    emit_lookahead_layers,
    form_q_columns,
    run_task_graph,
)
from .highlevel import PRODUCERS, Layer, LayerAnnotations, Task, TaskGraph, producer, producers
from .order import critical_path_lengths, order_fingerprint, static_order
from .overlap import OverlapResult, simulate_caqr_overlap

__all__ = [
    "LaunchGraph",
    "LaunchNode",
    "caqr_launch_graph",
    "emit_caqr_layers",
    "emit_lookahead_layers",
    "form_q_columns",
    "run_task_graph",
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
