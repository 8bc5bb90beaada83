"""Stream-aware list scheduling of a launch task graph (concurrent kernels).

Fermi-class devices execute kernels from different streams concurrently
as long as SM resources are free.  This module schedules a dependency
graph of launches (a :class:`~repro.graph.highlevel.TaskGraph` whose
tasks carry launch specs) onto ``S`` streams under that resource model:

* **streams** — each stream is an in-order queue; a launch occupies its
  stream from issue to completion, so at most ``S`` launches run at once.
* **SM occupancy** — a launch with ``n_blocks`` thread blocks and an
  occupancy of ``blocks_per_sm`` fills the fraction
  ``min(1, n_blocks / (n_sm * blocks_per_sm))`` of the device.  The sum
  of running fractions never exceeds 1: two grids that each fill the
  device serialize (which is also what makes concurrent scheduling of
  throughput-bound work time-conserving), while small latency-bound
  launches — tree levels, first-tile updates — genuinely overlap.

The scheduler is greedy list scheduling in the graph's static order
(:mod:`repro.graph.order`): each launch starts at the earliest time
that (a) its dependencies have finished, (b) some stream is free, and
(c) device capacity admits its fraction for its *body* — the fixed
launch overhead is host/driver issue time, which asynchronous stream
issue pipelines behind whatever the device is already running (the
serial stream, by contrast, pays every overhead on the critical path —
that is much of what overlap buys on large shapes).
Durations come from the same :func:`~repro.gpusim.launch.time_launch`
roofline that prices the serial timeline, so serial and overlapped
seconds are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import C2050, DeviceSpec
from .launch import LaunchSpec, occupancy_blocks_per_sm, time_launch

__all__ = [
    "ScheduledLaunch",
    "ConcurrentTimeline",
    "occupancy_weight",
    "list_schedule_graph",
]

_EPS = 1e-12


def occupancy_weight(spec: LaunchSpec, dev: DeviceSpec) -> float:
    """Fraction of the device one launch occupies while resident."""
    bps = occupancy_blocks_per_sm(spec, dev)
    return min(1.0, max(1, spec.n_blocks) / float(dev.n_sm * bps))


@dataclass(frozen=True)
class ScheduledLaunch:
    """One launch placed on a stream."""

    node_id: int
    kernel: str
    tag: str
    stream: int
    start: float  # host issue begins (launch overhead runs first)
    body_start: float  # kernel body occupies the device from here
    finish: float
    weight: float  # device fraction occupied while the body runs

    @property
    def seconds(self) -> float:
        return self.finish - self.start


@dataclass
class ConcurrentTimeline:
    """The overlapped schedule of one launch DAG on ``streams`` streams."""

    device: DeviceSpec
    streams: int
    launches: list[ScheduledLaunch] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((ev.finish for ev in self.launches), default=0.0)

    def stream_busy_seconds(self) -> dict[int, float]:
        out: dict[int, float] = {s: 0.0 for s in range(self.streams)}
        for ev in self.launches:
            out[ev.stream] += ev.seconds
        return out

    def utilization(self) -> float:
        """Mean busy fraction across streams over the makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        busy = sum(self.stream_busy_seconds().values())
        return busy / (span * self.streams)

    def max_concurrent_weight(self) -> float:
        """Peak summed device fraction at any instant (for invariants)."""
        peak = 0.0
        for ev in self.launches:
            t = ev.body_start
            tot = sum(o.weight for o in self.launches if o.body_start <= t < o.finish)
            peak = max(peak, tot)
        return peak


def _earliest_capacity_start(
    placed: list[ScheduledLaunch], t0: float, weight: float, ov: float, dur: float
) -> float:
    """Earliest issue time ``t >= t0`` whose body window ``[t+ov, t+dur)``
    fits ``weight`` under the running load (bodies only — overhead is
    host time and occupies no device capacity)."""
    if dur <= ov or weight <= 0.0:
        return t0
    # A body that finishes by t0 + ov lies before every candidate window,
    # so it loads none of them.
    live = [ev for ev in placed if ev.finish > t0 + ov]

    def fits(t: float) -> bool:
        # Concurrent weight is piecewise constant; it changes only at
        # body starts, so checking the window start and every body start
        # inside the window bounds the maximum.
        points = [t + ov] + [ev.body_start for ev in live if t + ov < ev.body_start < t + dur]
        for p in points:
            load = sum(ev.weight for ev in live if ev.body_start <= p < ev.finish)
            if load + weight > 1.0 + _EPS:
                return False
        return True

    if fits(t0):
        return t0
    # Capacity frees only when some body finishes; issuing ov early puts
    # this launch's body start exactly at that release point.
    for t in sorted({ev.finish - ov for ev in placed if ev.finish - ov > t0}):
        if fits(t):
            return t
    # Unreachable: past the last finish nothing is running.
    return max((ev.finish for ev in placed), default=t0)


def list_schedule_graph(
    tg, dev: DeviceSpec = C2050, streams: int = 4, order=None
) -> ConcurrentTimeline:
    """Greedy list schedule of a :class:`~repro.graph.highlevel.TaskGraph`.

    Launches are issued in the graph's *static order* (the
    critical-path-aware pass from :mod:`repro.graph.order`) rather than
    emission order, so long dependency chains start as early as the
    stream model allows; ``order`` is that order when the caller has
    already computed it.  Per-layer ``stream`` annotations pin tasks to
    a stream (modulo ``streams``); unannotated layers take the
    earliest-available stream.  Every task must carry a
    :class:`LaunchSpec`; ``node_id`` in the returned timeline is the
    task's emission index.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    if order is None:
        # Deferred: repro.graph sits above gpusim in the layering;
        # importing it lazily keeps this module importable on its own and
        # breaks the import cycle (graph.dag imports gpusim.launch at
        # module scope).
        from repro.graph.order import static_order

        order = static_order(tg)
    tl = ConcurrentTimeline(device=dev, streams=streams)
    finish: dict = {}
    stream_free = [0.0] * streams
    for key in order:
        task = tg.task(key)
        if task.spec is None:
            raise ValueError(f"task {key!r} has no launch spec; cannot schedule")
        ann = tg.annotations(task)
        timing = time_launch(task.spec, dev)
        dur = timing.seconds
        ov = timing.overhead_s
        w = occupancy_weight(task.spec, dev)
        ready = max((finish[d] for d in task.deps), default=0.0)
        if ann.stream is not None:
            s = ann.stream % streams
        else:
            s = min(range(streams), key=lambda j: (max(stream_free[j], ready), j))
        t0 = max(stream_free[s], ready)
        t0 = _earliest_capacity_start(tl.launches, t0, w, ov, dur)
        ev = ScheduledLaunch(
            node_id=task.seq,
            kernel=task.spec.kernel,
            tag=task.spec.tag,
            stream=s,
            start=t0,
            body_start=t0 + min(ov, dur),
            finish=t0 + dur,
            weight=w,
        )
        tl.launches.append(ev)
        finish[key] = ev.finish
        stream_free[s] = ev.finish
    return tl
