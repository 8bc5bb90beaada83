"""Sharded multi-device CAQR: the parallel CAQR of Demmel et al. (arXiv
0809.2407), executed over P simulated ranks.

The tall matrix is partitioned into P contiguous row shards.  Each rank
factors its shard on the single-process look-ahead driver
(:func:`repro.graph.executor.run_lookahead_schedule` at one worker,
with the panels the sharded policy reports: 16 wide unless
``panel_width`` says otherwise), producing a local upper-trapezoidal R.
The per-rank R factors are then eliminated up a configurable fan-in
tree over :class:`~repro.distributed.comm.FakeComm`: at every round,
groups of up to ``fanin`` surviving ranks send their packed triangles
to the group's first member, which stacks and re-factors them —
``ceil(log_fanin P)`` rounds on the critical path, ``~n(n+1)/2`` words
per message.  Each merge is a TSQR tree node
(:func:`repro.core.tsqr.merge_rs`), so the factors
(:class:`ShardedCAQRFactors`) apply Q and Q^T in place on ``m`` rows
like every in-core factorization: the ranks' local factors, then the
rounds.

Inter-rank traffic is charged through a calibrated alpha-beta
:class:`~repro.distributed.comm.InterconnectModel`, the same accounting
discipline :mod:`repro.gpusim` applies to global-memory bytes.  The
whole execution is reachable as ``ExecutionPolicy(path="sharded",
shards=P, fanin=...)`` through every policy-accepting entry point, and
:func:`build_shard_schedule` precomputes the row deal plus the
reduction schedule once per shape so :class:`repro.runtime.plan.QRPlan`
replays it with zero re-planning.

Numerics contract: the communicator moves packed upper-trapezoid
entries bit-exactly, so the sharded R is **bit-identical** to the same
shard/reduction tree executed in a single process
(:func:`sharded_reference_r`), and agrees with the single-process CAQR
paths to the usual sign-canonicalized backward-error tolerance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.caqr import MergedCAQRFactors
from repro.core.tsqr import merge_rs
from repro.obs import tracer as _obs

from .comm import FakeComm, InterconnectModel

__all__ = [
    "ShardSchedule",
    "ShardedCAQRFactors",
    "build_shard_schedule",
    "emit_sharded_layers",
    "run_sharded",
    "sharded_reference_r",
]


@dataclass(frozen=True)
class ShardSchedule:
    """Precomputed shard row-deal + fan-in reduction schedule for a shape.

    ``rows[r]`` is rank ``r``'s contiguous ``[start, stop)`` row range.
    ``rounds`` is the reduction tree, one level per entry; each level is
    a tuple of ``(dst, srcs)`` merges — ``srcs`` send their current R to
    ``dst``, which stacks ``[R_dst, R_src0, ...]`` and re-factors.  All
    merges within a level touch disjoint ranks, so a level is one
    communication round.
    """

    m: int
    n: int
    shards: int  # effective rank count (every rank owns >= 1 row)
    fanin: int
    rows: tuple[tuple[int, int], ...]
    rounds: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    @property
    def levels(self) -> int:
        """Reduction rounds on the critical path (= ceil(log_fanin P))."""
        return len(self.rounds)

    def fingerprint(self) -> str:
        """SHA-256 (truncated) of the row deal + reduction schedule."""
        h = hashlib.sha256()
        h.update(repr((self.m, self.n, self.shards, self.fanin)).encode())
        h.update(repr(self.rows).encode())
        h.update(repr(self.rounds).encode())
        return h.hexdigest()[:16]

    def describe(self) -> str:
        """One human-readable line per reduction round."""
        lines = [
            f"shard schedule {self.m}x{self.n}: {self.shards} rank(s), "
            f"fan-in {self.fanin}, {self.levels} round(s)"
        ]
        for lvl, merges in enumerate(self.rounds):
            parts = ", ".join(
                f"{list(srcs)}->{dst}" for dst, srcs in merges
            )
            lines.append(f"  round {lvl}: {parts}")
        return "\n".join(lines)


def build_shard_schedule(m: int, n: int, shards: int, fanin: int = 2) -> ShardSchedule:
    """Deal ``m`` rows across ``shards`` ranks and build the fan-in tree.

    Rows are dealt in contiguous slices (the first ``m % P`` ranks get
    one extra row).  The effective rank count is clamped so every rank
    owns at least one row — sharding a 3-row matrix across 8 ranks runs
    3 ranks, not 8 with 5 idle.  The reduction tree groups ``fanin``
    consecutive survivors per merge until one rank holds the global R.
    """
    if m < 0 or n < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if shards < 1:
        raise ValueError("need at least one shard")
    if fanin < 2:
        raise ValueError("fan-in must be at least 2")
    p = max(1, min(shards, m))
    base, extra = divmod(m, p)
    rows = []
    start = 0
    for r in range(p):
        h = base + (1 if r < extra else 0)
        rows.append((start, start + h))
        start += h
    rounds: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
    survivors = list(range(p))
    while len(survivors) > 1:
        level = []
        nxt = []
        for i in range(0, len(survivors), fanin):
            group = survivors[i : i + fanin]
            dst = group[0]
            nxt.append(dst)
            if len(group) > 1:
                level.append((dst, tuple(group[1:])))
        if level:
            rounds.append(tuple(level))
        survivors = nxt
    return ShardSchedule(
        m=m, n=n, shards=p, fanin=fanin, rows=tuple(rows), rounds=tuple(rounds)
    )


@dataclass
class ShardedCAQRFactors(MergedCAQRFactors):
    """Implicit Q and explicit R of a sharded CAQR factorization: the
    ranks' local CAQR factors (``blocks``) and one merge level per
    fan-in round (``levels``).  R is held by rank 0."""

    schedule: ShardSchedule
    comm: FakeComm | None

    @property
    def shards(self) -> int:
        return self.schedule.shards

    def network_seconds(self, interconnect: InterconnectModel) -> float:
        """Modeled critical-path communication time of this run."""
        if self.comm is None:
            return 0.0
        return interconnect.seconds(
            self.comm.critical_path_messages(), self.comm.critical_path_words()
        )


def _trapezoid_pack(R: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Pack the nonzero (upper-trapezoid) entries of a ``k x n`` R."""
    idx = np.triu_indices(R.shape[0], 0, R.shape[1])
    return R[idx], idx


def _local_factor(A_shard: np.ndarray, policy) -> tuple:
    """One rank's local CAQR on the look-ahead driver under the policy.

    Returns ``(factors, R)`` with R upper-trapezoidal
    ``min(h, n) x n`` — the block the rank contributes to the tree.
    """
    from repro.graph.executor import build_lookahead_schedule, run_lookahead_schedule

    h, n = A_shard.shape
    f = run_lookahead_schedule(build_lookahead_schedule(h, n, policy), A_shard)
    return f, np.triu(f.R)


def _reduce(
    schedule: ShardSchedule, current: dict[int, np.ndarray], comm: FakeComm | None
) -> tuple[dict[int, np.ndarray], list[list[tuple]]]:
    """Run the fan-in rounds; returns the surviving R(s) and one merge
    level per round (:func:`~repro.core.tsqr.merge_rs` entries).

    Every rank's R lies in the top rows of its row range, and a merged
    R in its destination's, so each merge's row map is the ranks' row
    starts.  With a communicator, every source rank packs its trapezoid
    and sends it (tagged with the round index, so per-level
    critical-path accounting works); without one, the same arrays are
    handed over directly — the arithmetic is identical either way,
    which is the bit-identity contract :func:`sharded_reference_r` pins.
    """
    levels = []
    for level, merges in enumerate(schedule.rounds):
        with _obs.span("shard.reduce", cat="shard", level=level, merges=len(merges)):
            entries = []
            for dst, srcs in merges:
                blocks = [current[dst]]
                for src in srcs:
                    Rs = current.pop(src)
                    if comm is not None:
                        packed, idx = _trapezoid_pack(Rs)
                        comm.send(packed, src=src, dst=dst, tag=level)
                        Rs = np.zeros_like(Rs)
                        Rs[idx] = comm.recv(src=src, dst=dst, tag=level)
                    blocks.append(Rs)
                starts = [schedule.rows[r][0] for r in (dst, *srcs)]
                current[dst], entry = merge_rs(blocks, starts)
                entries.append(entry)
            levels.append(entries)
    return current, levels


def emit_sharded_layers(schedule: ShardSchedule):
    """Compile a :class:`ShardSchedule` into structural task-graph layers.

    One ``local`` layer (per-rank CAQR, ``device="rank{r}"`` tags in the
    task info) plus one ``round{L}`` layer per fan-in reduction round —
    the schedule's rounds in layer form.  Keys are ``("local", r)`` and
    ``("merge", L, dst)``; each merge depends on the tasks currently
    holding the R of its destination and source ranks, so cross-round
    chains are explicit and rounds with disjoint ranks can overlap.
    Registered as the ``sharded_reduction`` producer in
    :data:`repro.graph.highlevel.PRODUCERS`.  The graph is structural:
    it is the shape ``QRPlan.task_graph()`` returns and the CI
    fingerprint gate pins, and :func:`run_sharded` runs the same
    schedule.
    """
    from repro.graph.highlevel import TaskGraph

    tg = TaskGraph(name=f"sharded[{schedule.m}x{schedule.n}]p{schedule.shards}f{schedule.fanin}")
    tg.add_layer("local")
    holder: dict[int, tuple] = {}
    for r, (s, e) in enumerate(schedule.rows):
        holder[r] = tg.add_task("local", ("local", r), rank=r, rows=(s, e), device=f"rank{r}")
    for level, merges in enumerate(schedule.rounds):
        layer = tg.add_layer(f"round{level}")
        for dst, srcs in merges:
            holder[dst] = tg.add_task(
                layer,
                ("merge", level, dst),
                deps=[holder[dst]] + [holder[s] for s in srcs],
                rank=dst,
                srcs=srcs,
                device=f"rank{dst}",
            )
    return tg


def run_sharded(A: np.ndarray, policy, schedule: ShardSchedule | None = None) -> ShardedCAQRFactors:
    """Factor an *already validated* matrix across ``policy.shards`` ranks.

    Called by the ``caqr`` entry point and :class:`~repro.runtime.plan.QRPlan`
    after the one public-boundary validation.  Each rank's work and every
    reduction round is spanned (``rank=`` / ``level=`` tags) so traces
    attribute time per simulated device.
    """
    m, n = A.shape
    if schedule is None:
        schedule = build_shard_schedule(m, n, policy.shards, policy.effective_fanin)
    comm = FakeComm(size=schedule.shards) if schedule.shards > 1 else None
    with _obs.span(
        "sharded", cat="shard", m=m, n=n, shards=schedule.shards, fanin=schedule.fanin
    ):
        local = []
        current: dict[int, np.ndarray] = {}
        for r, (s, e) in enumerate(schedule.rows):
            with _obs.span("shard.local", cat="shard", rank=r, rows=e - s):
                f, Rr = _local_factor(A[s:e], policy)
            local.append((s, f))
            current[r] = Rr
        current, levels = _reduce(schedule, current, comm)
        if comm is not None:
            _obs.counters(
                shard_messages=comm.total_messages,
                shard_words=int(comm.total_words),
            )
        if current:
            R_root = current[0]
        else:  # m == 0: no ranks dealt, R is the empty trapezoid
            R_root = np.zeros((0, n), dtype=A.dtype)
        k = min(m, n)
        R = np.zeros((k, n), dtype=A.dtype)
        R[: R_root.shape[0]] = R_root[:k]
    return ShardedCAQRFactors(
        m=m, n=n, R=R, blocks=local, levels=levels, schedule=schedule, comm=comm
    )


def sharded_reference_r(A: np.ndarray, policy, schedule: ShardSchedule | None = None) -> np.ndarray:
    """The single-process reference R for a sharded run: same shard
    partition, same local factorizations, same fan-in tree — no
    communicator.  ``run_sharded(...).R`` must equal this **bitwise**;
    any difference means the communication layer (packing, transport,
    reconstruction) perturbed the numerics.
    """
    A = np.asarray(A)
    m, n = A.shape
    if schedule is None:
        schedule = build_shard_schedule(m, n, policy.shards, policy.effective_fanin)
    current: dict[int, np.ndarray] = {}
    for r, (s, e) in enumerate(schedule.rows):
        _f, Rr = _local_factor(A[s:e], policy)
        current[r] = Rr
    current, _levels = _reduce(schedule, current, None)
    R_root = current[0] if current else np.zeros((0, n), dtype=A.dtype)
    k = min(m, n)
    R = np.zeros((k, n), dtype=A.dtype)
    R[: R_root.shape[0]] = R_root[:k]
    return R
