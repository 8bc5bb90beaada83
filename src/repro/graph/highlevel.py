"""The shared high-level task graph — named layers, key-based dependencies.

Demmel, Grigori, Hoemmen & Langou present TSQR/CAQR explicitly as a DAG
of block tasks scheduled for minimal communication.  This module is the
one structural description of such DAGs — the CAQR launch stream, the
look-ahead schedule, the sharded reduction and the streaming chunk
pipeline all compile to it:

* a :class:`Task` is one unit of work with a hashable ``key``, explicit
  ``deps`` (keys of tasks that must finish first), an optional
  :class:`~repro.gpusim.launch.LaunchSpec` for the simulator, and an
  ordering ``cost``;
* a :class:`Layer` is a named group of tasks sharing annotations —
  a ``stream`` hint for the overlap simulator, an ordering ``priority``,
  a default ``cost`` model weight, and a ``device`` tag;
* a :class:`TaskGraph` is an ordered collection of layers.  Emission
  order (the order of :meth:`TaskGraph.add_task` calls) is recorded and
  is the deterministic tiebreak of the static ordering pass
  (:mod:`repro.graph.order`); it does **not** have to be topological.

Producers — the functions that compile a workload into a ``TaskGraph``
— are registered in :data:`PRODUCERS` so tooling (the layering lint,
the fingerprint gate, the docs producer table) has one ground truth.
Construction of ``TaskGraph``/``Layer`` anywhere outside ``repro.graph``
and the registered producer modules is a layering-lint violation: the
graph representation is shared infrastructure, and a privately built
graph would bypass the ordering pass and the fingerprint pins.

A graph carries no payloads: it is a description, not a runner.  The
look-ahead driver compiles its graph's static order once per schedule
and runs its own closures in that order
(:func:`repro.graph.executor.run_lookahead_schedule`); graphs whose
tasks carry a ``spec`` schedule onto S concurrent streams with
:func:`repro.gpusim.concurrent.list_schedule_graph`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Hashable, Iterator

__all__ = [
    "Key",
    "Task",
    "Layer",
    "LayerAnnotations",
    "TaskGraph",
    "PRODUCERS",
    "producer",
    "producers",
]

Key = Hashable


@dataclass(frozen=True)
class LayerAnnotations:
    """Per-layer scheduling hints shared by every task of the layer.

    Attributes:
        stream: preferred simulator stream (``None`` lets the list
            scheduler pick the earliest-available stream).
        priority: static-ordering boost — among ready tasks, higher
            priority always wins before critical-path length is even
            consulted (how the look-ahead edge is expressed: panel
            factors outrank trailing updates).
        cost: default ordering weight of the layer's tasks (overridden
            per task by :attr:`Task.cost`, or by the modeled duration
            when a task carries a ``spec``).
        device: informational device tag (e.g. ``"gpu0"``, ``"rank3"``);
            carried into fingerprints and obs spans, not interpreted by
            the scheduler.
    """

    stream: int | None = None
    priority: int = 0
    cost: float | None = None
    device: str | None = None

    def describe(self) -> str:
        parts = []
        if self.stream is not None:
            parts.append(f"stream={self.stream}")
        if self.priority:
            parts.append(f"priority={self.priority}")
        if self.cost is not None:
            parts.append(f"cost={self.cost:g}")
        if self.device is not None:
            parts.append(f"device={self.device}")
        return ", ".join(parts) or "-"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of a :class:`TaskGraph`.

    Attributes:
        key: hashable, graph-unique identity; dependencies name keys.
        layer: owning layer's name.
        deps: keys that must complete before this task may run.
        seq: emission index (global across layers) — the deterministic
            tiebreak of the static ordering pass.
        spec: optional :class:`~repro.gpusim.launch.LaunchSpec` pricing
            this task in the modeled domain.
        cost: optional ordering weight (defaults to the layer's ``cost``
            annotation, then 1.0).
        info: small structural annotations (panel index, column range,
            rank...) — hashed into fingerprints, shown in obs spans.
    """

    key: Key
    layer: str
    deps: tuple[Key, ...] = ()
    seq: int = 0
    spec: Any | None = None
    cost: float | None = None
    info: tuple[tuple[str, Any], ...] = ()


@dataclass
class Layer:
    """A named group of tasks sharing :class:`LayerAnnotations`."""

    name: str
    annotations: LayerAnnotations = field(default_factory=LayerAnnotations)
    keys: list[Key] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.keys)


class TaskGraph:
    """Named layers of key-addressed tasks with cross-layer dependencies.

    Tasks are added through :meth:`add_task` (layers spring into
    existence on first use, or are pre-declared with annotations via
    :meth:`add_layer`).  Dependencies are *keys* and may point at tasks
    in any layer, emitted before or after — :meth:`validate` checks they
    all resolve and the graph is acyclic.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.layers: dict[str, Layer] = {}
        self._tasks: dict[Key, Task] = {}

    # -- construction --------------------------------------------------------

    def add_layer(
        self,
        name: str,
        *,
        stream: int | None = None,
        priority: int = 0,
        cost: float | None = None,
        device: str | None = None,
    ) -> str:
        """Declare a layer; declaring an existing name raises ``ValueError``."""
        if name in self.layers:
            raise ValueError(f"layer {name!r} already exists")
        self.layers[name] = Layer(
            name=name,
            annotations=LayerAnnotations(
                stream=stream, priority=priority, cost=cost, device=device
            ),
        )
        return name

    def add_task(
        self,
        layer: str,
        key: Key,
        deps: tuple[Key, ...] | list[Key] = (),
        spec: Any | None = None,
        cost: float | None = None,
        **info: Any,
    ) -> Key:
        """Append one task to ``layer`` (created bare if undeclared).

        Duplicate dependency keys are collapsed preserving first
        occurrence — emitters may append overlapping dependency lists
        without bookkeeping.  ``info`` is structural data: a callable
        (a payload) has no stable repr to fingerprint, so it raises
        ``TypeError``.
        """
        if key in self._tasks:
            raise ValueError(f"duplicate task key {key!r}")
        for name, value in info.items():
            if callable(value):
                raise TypeError(f"task info {name!r} is callable; a task graph holds no payloads")
        if layer not in self.layers:
            self.add_layer(layer)
        task = Task(
            key=key,
            layer=layer,
            deps=tuple(dict.fromkeys(deps)),
            seq=len(self._tasks),
            spec=spec,
            cost=cost,
            info=tuple(sorted(info.items())),
        )
        self._tasks[key] = task
        self.layers[layer].keys.append(key)
        return key

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, key: Key) -> bool:
        return key in self._tasks

    def task(self, key: Key) -> Task:
        return self._tasks[key]

    def tasks(self) -> Iterator[Task]:
        """All tasks in emission order."""
        return iter(self._tasks.values())

    def annotations(self, task: Task) -> LayerAnnotations:
        return self.layers[task.layer].annotations

    def ordering_cost(self, task: Task) -> float:
        """The static-ordering weight of one task.

        Explicit ``cost`` wins; otherwise the layer's ``cost``
        annotation; otherwise every task weighs 1.0 (pure critical-path
        *length*).  Modeled durations are deliberately not consulted
        here — the ordering pass must stay dependency-pure so its output
        is pinnable without a device model.
        """
        if task.cost is not None:
            return task.cost
        ann = self.layers[task.layer].annotations
        return 1.0 if ann.cost is None else ann.cost

    def dependents(self) -> dict[Key, list[Key]]:
        """Reverse edges, in emission order per source."""
        out: dict[Key, list[Key]] = {k: [] for k in self._tasks}
        for t in self._tasks.values():
            for d in t.deps:
                out[d].append(t.key)
        return out

    # -- checks --------------------------------------------------------------

    def validate(self) -> None:
        """Check every dep resolves, keys are layer-consistent, no cycles."""
        for t in self._tasks.values():
            for d in t.deps:
                if d not in self._tasks:
                    raise ValueError(f"task {t.key!r} depends on unknown key {d!r}")
                if d == t.key:
                    raise ValueError(f"task {t.key!r} depends on itself")
        # Kahn pass: anything left has a cycle through it.
        indeg = {k: len(t.deps) for k, t in self._tasks.items()}
        ready = [k for k, d in indeg.items() if d == 0]
        dependents = self.dependents()
        seen = 0
        while ready:
            k = ready.pop()
            seen += 1
            for j in dependents[k]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if seen != len(self._tasks):
            cyclic = sorted(
                (repr(k) for k, d in indeg.items() if d > 0), key=str
            )[:4]
            raise ValueError(f"dependency cycle through {', '.join(cyclic)}")

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 (truncated) of the graph *structure*.

        Hashes the graph name, layer names + annotations and every
        task's key, layer, deps, spec, cost and info — pure shape
        arithmetic, which is what lets the CI gate pin graphs without
        touching a matrix.
        """
        h = hashlib.sha256()
        h.update(self.name.encode())
        for layer in self.layers.values():
            h.update(repr((layer.name, layer.annotations)).encode())
        for t in self._tasks.values():
            h.update(repr((t.key, t.layer, t.deps, t.spec, t.cost, t.info)).encode())
        return h.hexdigest()[:16]

    def describe(self) -> str:
        """One line per layer: name, task count, annotations."""
        lines = [f"task graph {self.name!r}: {len(self)} task(s), {len(self.layers)} layer(s)"]
        for layer in self.layers.values():
            lines.append(
                f"  {layer.name:<16} {len(layer):>5} task(s)  "
                f"[{layer.annotations.describe()}]"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Producer registry ----------------------------------------------------------
# ---------------------------------------------------------------------------

#: The registered graph producers: name -> "module:function".  These are
#: the only modules (besides ``repro.graph`` itself) allowed to construct
#: ``TaskGraph``/``Layer`` — ``tools/lint_layering.py`` enforces the
#: fence, and ``tests/runtime/test_layering_lint.py`` checks this table
#: and the lint's allowlist agree.
PRODUCERS: dict[str, str] = {
    "caqr": "repro.graph.dag:emit_caqr_layers",
    "lookahead": "repro.graph.executor:emit_lookahead_layers",
    "sharded_reduction": "repro.distributed.sharded:emit_sharded_layers",
    "streaming": "repro.streaming.graphs:emit_streaming_layers",
}


def producer(name: str) -> Callable[..., TaskGraph]:
    """Resolve one registered producer to its emit function."""
    try:
        target = PRODUCERS[name]
    except KeyError:
        raise KeyError(
            f"unknown graph producer {name!r}; registered: {tuple(PRODUCERS)}"
        ) from None
    module, _, func = target.partition(":")
    return getattr(import_module(module), func)


def producers() -> dict[str, Callable[..., TaskGraph]]:
    """All registered producers, resolved (imports the owning modules)."""
    return {name: producer(name) for name in PRODUCERS}
