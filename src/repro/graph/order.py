"""Deterministic static ordering for :class:`~repro.graph.highlevel.TaskGraph`.

The pass that replaces implicit program-order scheduling: given a task
graph, produce one total order that every consumer (the critical-path
walk and the multi-stream list scheduler) uses.  The look-ahead driver's
task list is a chain, which this order leaves as it is.  Dask's
``order.py`` solves the same problem for its schedulers; ours is smaller
because our graphs are regular, but the contract is the same — the
order is a function of graph *structure* only:

* it is a valid topological order (dependencies strictly precede
  dependents);
* it is deterministic across runs and interpreters — no hash
  randomization leaks in because keys are compared only via each task's
  integer emission index;
* among ready tasks it prefers, in order: higher layer ``priority``
  (the look-ahead edge: panel factors outrank trailing updates), longer
  critical path to a sink (finish load-bearing chains first so the
  stream scheduler always has work), then earlier emission (the
  program-order tiebreak that keeps regular graphs in their natural
  sweep).

Costs come from :meth:`TaskGraph.ordering_cost` (explicit task cost,
else layer annotation, else 1.0) — deliberately *not* from the gpusim
device model, so the order is pinnable in CI without fixing a device.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.highlevel import Key, TaskGraph

__all__ = ["critical_path_lengths", "static_order", "order_fingerprint"]


def critical_path_lengths(graph: "TaskGraph") -> dict["Key", float]:
    """Longest cost-weighted path from each task to any sink (inclusive).

    Computed iteratively (graphs reach tens of thousands of tasks at
    bench shapes — recursion would overflow) over the dependents
    relation: ``cp[t] = cost(t) + max(cp[dependents of t], default 0)``.
    """
    dependents = graph.dependents()
    cp: dict[Key, float] = {}
    # Reverse topological order via iterative DFS with an explicit
    # post-order stack; cycle detection is validate()'s job, so a cycle
    # here would only surface as a KeyError — call validate() first.
    state: dict[Key, int] = {}  # 0 = discovered, 1 = done
    for root in graph._tasks:
        if root in state:
            continue
        stack = [(root, False)]
        while stack:
            key, processed = stack.pop()
            if processed:
                cp[key] = graph.ordering_cost(graph.task(key)) + max(
                    (cp[d] for d in dependents[key]), default=0.0
                )
                state[key] = 1
                continue
            if key in state:
                continue
            state[key] = 0
            stack.append((key, True))
            for d in dependents[key]:
                if d not in state:
                    stack.append((d, False))
    return cp


def static_order(graph: "TaskGraph") -> list["Key"]:
    """One deterministic, critical-path-aware topological order.

    Kahn's algorithm with a priority heap over the ready set.  The heap
    entries compare as ``(-layer priority, -critical path, emission
    seq)`` — all ints/floats, never raw keys, so arbitrary hashable
    keys (tuples, strings, mixed) order identically everywhere.
    """
    graph.validate()
    cp = critical_path_lengths(graph)
    dependents = graph.dependents()
    indeg = {t.key: len(t.deps) for t in graph.tasks()}

    ready: list[tuple[int, float, int]] = []
    seq_to_key = {t.seq: t.key for t in graph.tasks()}

    def push(key: "Key") -> None:
        t = graph.task(key)
        ann = graph.annotations(t)
        heapq.heappush(ready, (-ann.priority, -cp[key], t.seq))

    for t in graph.tasks():
        if indeg[t.key] == 0:
            push(t.key)

    order: list[Key] = []
    while ready:
        _, _, seq = heapq.heappop(ready)
        key = seq_to_key[seq]
        order.append(key)
        for j in dependents[key]:
            indeg[j] -= 1
            if indeg[j] == 0:
                push(j)
    # validate() already ruled out cycles, so this always drains.
    return order


def order_fingerprint(graph: "TaskGraph") -> str:
    """SHA-256 (truncated) of the static order — the CI determinism pin."""
    import hashlib

    h = hashlib.sha256()
    h.update(graph.fingerprint().encode())
    for key in static_order(graph):
        h.update(repr(key).encode())
    return h.hexdigest()[:16]
