"""Modeled multi-stream overlap for CAQR — serial vs overlapped seconds.

Glue between :func:`repro.graph.dag.emit_caqr_layers` and
:func:`repro.gpusim.concurrent.list_schedule_graph`: emit the task
graph, schedule it on 1..S streams in its critical-path static order
(:mod:`repro.graph.order`), and report the overlapped runtime next to
the serial Figure-4 stream (which remains the default everywhere — this
is the opt-in path behind ``streams=``).

``overlap_seconds`` is the best makespan over all stream counts up to
``S`` *including the unsplit serial stream itself* (a driver holding one
stream simply issues the serial program).  That definition makes two
invariants structural rather than empirical: overlap can never exceed
serial, and adding streams can never hurt (greedy list scheduling alone
is not anomaly-free — Graham's bounds — but a scheduler that may leave
streams idle is).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caqr_gpu import simulate_caqr
from repro.gpusim.concurrent import ConcurrentTimeline, list_schedule_graph
from repro.gpusim.device import C2050, DeviceSpec
from repro.gpusim.launch import time_launch
from repro.kernels.config import REFERENCE_CONFIG, KernelConfig

from .dag import emit_caqr_layers
from .highlevel import TaskGraph
from .order import static_order

__all__ = ["OverlapResult", "simulate_caqr_overlap"]


@dataclass
class OverlapResult:
    """Serial / overlapped / critical-path seconds for one CAQR shape."""

    m: int
    n: int
    config: KernelConfig
    device: DeviceSpec
    streams: int
    lookahead: bool
    graph: TaskGraph
    serial_seconds: float
    critical_path_seconds: float
    makespans: dict[int, float] = field(default_factory=dict)  # streams -> raw makespan
    timeline: ConcurrentTimeline | None = None  # schedule at best_streams

    @property
    def overlap_seconds(self) -> float:
        """Best runtime on up to ``streams`` streams (serial included)."""
        return min(self.serial_seconds, min(self.makespans.values(), default=float("inf")))

    @property
    def best_streams(self) -> int:
        best_s, best_t = 1, self.serial_seconds
        for s, t in sorted(self.makespans.items()):
            if t < best_t:
                best_s, best_t = s, t
        return best_s

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.overlap_seconds

    @property
    def hidden_seconds(self) -> float:
        """Serial time hidden by overlap (what the streams bought)."""
        return self.serial_seconds - self.overlap_seconds


def simulate_caqr_overlap(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    streams: int = 4,
    lookahead: bool = True,
) -> OverlapResult:
    """Model CAQR on ``streams`` concurrent streams.

    Emits the panel/tree/trailing task graph (look-ahead edges by
    default), computes its static order once, list-schedules it in that
    order for every stream count ``2..streams``, and returns the result
    alongside the serial reference produced by the untouched
    :func:`~repro.caqr_gpu.simulate_caqr`.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    serial = simulate_caqr(m, n, cfg, dev).seconds
    tg = emit_caqr_layers(m, n, cfg, dev, lookahead=lookahead)
    # Critical path: the longest dependency chain under the modeled
    # launch durations, the bound no number of streams can beat.
    order = static_order(tg)
    finish: dict = {}
    for key in order:
        task = tg.task(key)
        start = max((finish[d] for d in task.deps), default=0.0)
        finish[key] = start + time_launch(task.spec, dev).seconds
    res = OverlapResult(
        m=m,
        n=n,
        config=cfg,
        device=dev,
        streams=streams,
        lookahead=lookahead,
        graph=tg,
        serial_seconds=serial,
        critical_path_seconds=max(finish.values(), default=0.0),
    )
    best_tl: ConcurrentTimeline | None = None
    for s in range(2, streams + 1):
        tl = list_schedule_graph(tg, dev, streams=s, order=order)
        res.makespans[s] = tl.makespan
        if best_tl is None or tl.makespan < best_tl.makespan:
            best_tl = tl
    res.timeline = best_tl
    return res
