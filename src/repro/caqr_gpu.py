"""GPU CAQR driver — the host pseudocode of Figure 4, simulated.

This module turns the CAQR algorithm into the exact stream of kernel
launches the paper's host CPU issues::

    Foreach panel:
        (transpose preprocessing, when the tuned layout is used)
        factor            # small QRs in the panel
        Foreach level in tree:
            factor_tree   # small QRs of stacked Rs
        apply_qt_h        # horizontal trailing update
        Foreach level in tree:
            apply_qt_tree # tree trailing update

Two entry points share one schedule generator, so their timelines are
identical by construction:

* :func:`simulate_caqr` — shape arithmetic only; usable at paper scale
  (1M x 192 and beyond) where materializing the matrix is pointless.
* :func:`caqr_gpu_factor` — runs the real factorization (NumPy math via
  :mod:`repro.core.caqr`) *and* produces the same timeline; used at test
  scale to tie numerics and cost model together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core.caqr import CAQRFactors, caqr
from .runtime.policy import UNSET, ExecutionPolicy, resolve_policy
from .core.householder import qr_flops
from .core.tree import build_tree
from .core.tsqr import level0_rows, row_blocks
from .gpusim.counters import Counters
from .gpusim.device import C2050, DeviceSpec
from .gpusim.launch import LaunchSpec, occupancy_blocks_per_sm
from .gpusim.timeline import Timeline
from .kernels.config import REFERENCE_CONFIG, KernelConfig
from .kernels.costs import (
    apply_qt_h_launch,
    apply_qt_tree_launch,
    chol_launch,
    factor_launch,
    factor_tree_launch,
    gram_launch,
    scale_launch,
    transpose_launch,
    trsm_launch,
)
from .verify.guards import validate_matrix

__all__ = [
    "CAQRGpuResult",
    "ShardedGpuResult",
    "enumerate_caqr_launches",
    "enumerate_cholqr2_launches",
    "simulate_caqr",
    "simulate_cholqr2",
    "simulate_form_q",
    "simulate_sharded",
    "caqr_gpu_factor",
    "caqr_gflops",
]


@dataclass
class CAQRGpuResult:
    """Outcome of a simulated GPU CAQR factorization.

    ``overlap`` is populated only when the simulation was asked for
    concurrent streams (``streams=``): it carries the launch DAG and the
    list-scheduled multi-stream timing next to the serial ``timeline``
    (which always remains the default, fingerprinted stream).
    """

    m: int
    n: int
    config: KernelConfig
    device: DeviceSpec
    timeline: Timeline
    overlap: "object | None" = None  # repro.graph.overlap.OverlapResult

    @property
    def seconds(self) -> float:
        return self.timeline.total_seconds

    @property
    def overlap_seconds(self) -> float | None:
        """Modeled seconds on concurrent streams (None when serial-only)."""
        return None if self.overlap is None else self.overlap.overlap_seconds

    @property
    def counters(self) -> Counters:
        return self.timeline.counters

    @property
    def standard_flops(self) -> float:
        """The SGEQRF flop count the paper divides by (not CAQR's actual)."""
        return qr_flops(self.m, self.n)

    @property
    def gflops(self) -> float:
        return self.standard_flops / self.seconds / 1e9

    @property
    def flop_overhead(self) -> float:
        """Ratio of flops actually performed to the standard count —
        CAQR's redundant tree arithmetic made visible."""
        return self.counters.flops / self.standard_flops

    def breakdown(self) -> dict[str, float]:
        return self.timeline.seconds_by_kernel()


def _tile_width(wt: int, bh: int, cfg: KernelConfig, dev: DeviceSpec) -> int:
    """Trailing-tile width for the update kernels.

    A wider tile applies each reflector to more columns per block,
    amortizing the reflector broadcast and partial reductions — the
    update drifts toward BLAS3 efficiency exactly when the trailing
    matrix is wide — but costs register-file occupancy.  The driver picks
    the candidate with the best modeled per-SM throughput (occupancy
    included), honoring a fixed ``cfg.tile_width`` for ablations.
    """
    if cfg.tile_width is not None:
        return cfg.tile_width
    best, best_rate = cfg.panel_width, 0.0
    for cand in (cfg.panel_width, 32, 64):
        if cand < cfg.panel_width:
            continue
        # A wider tile only pays off when the trailing matrix is wide
        # enough to fill the grid with such tiles.
        if cand > cfg.panel_width and wt < 8 * cand:
            continue
        spec = apply_qt_h_launch(1, bh, cfg.panel_width, cand, cfg, dev)
        try:
            bps = occupancy_blocks_per_sm(spec, dev)
        except ValueError:
            continue  # block does not fit on an SM
        eff = min(1.0, spec.threads_per_block / 32.0 * bps / dev.min_warps_full_rate)
        rate = spec.flops_per_block / (spec.cycles_per_block / eff)
        if rate > best_rate:
            best, best_rate = cand, rate
    return best


def enumerate_caqr_launches(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
) -> Iterator[LaunchSpec]:
    """Yield every kernel launch of a CAQR factorization, in host order."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    k = min(m, n)
    pw = cfg.panel_width
    for c0 in range(0, k, pw):
        pw_p = min(pw, k - c0)
        r0 = c0  # the grid is redrawn lower by the panel width
        hp = m - r0
        bh = level0_rows(cfg.block_rows, pw_p)
        blocks = row_blocks(hp, bh)
        nb0 = len(blocks)
        tree = build_tree(nb0, cfg.tree_shape)
        tag = f"panel{c0 // pw}"
        if cfg.transpose_preprocess and cfg.strategy == "regfile_transpose":
            yield transpose_launch(hp, pw_p, cfg, dev, tag=tag)
        yield factor_launch(nb0, bh, pw_p, cfg, dev, tag=tag)
        level_arities = tree.level_arities()
        for lvl, level in enumerate(tree.levels):
            yield factor_tree_launch(
                len(level), level_arities[lvl], pw_p, cfg, dev, tag=f"{tag}/L{lvl}"
            )
        wt = n - (c0 + pw_p)
        if wt > 0:
            tile_w = _tile_width(wt, bh, cfg, dev)
            tiles = math.ceil(wt / tile_w)
            yield apply_qt_h_launch(nb0 * tiles, bh, pw_p, tile_w, cfg, dev, tag=tag)
            for lvl, level in enumerate(tree.levels):
                yield apply_qt_tree_launch(
                    len(level) * tiles, level_arities[lvl], pw_p, tile_w, cfg, dev, tag=f"{tag}/L{lvl}"
                )


def simulate_caqr(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    streams: int | None = None,
    lookahead: bool = True,
) -> CAQRGpuResult:
    """Simulate a full CAQR factorization of an ``m x n`` matrix.

    The matrix is assumed resident in GPU memory (the paper does not count
    the initial transfer; Section V-C).  Pure shape arithmetic — no arrays
    are materialized, so this runs at any paper scale.

    ``streams`` (opt-in) additionally list-schedules the launch DAG onto
    that many concurrent streams and attaches the
    :class:`~repro.graph.overlap.OverlapResult` as ``result.overlap``;
    ``lookahead`` controls whether the DAG carries the look-ahead edge or
    the serial panel barrier.  The serial ``timeline`` is built the same
    way regardless, so fingerprints never move.
    """
    tl = Timeline(device=dev)
    for spec in enumerate_caqr_launches(m, n, cfg, dev):
        tl.launch(spec)
    res = CAQRGpuResult(m=m, n=n, config=cfg, device=dev, timeline=tl)
    if streams is not None and streams > 1:
        # Deferred: repro.graph sits above this module in the layering.
        from repro.graph.overlap import simulate_caqr_overlap

        res.overlap = simulate_caqr_overlap(
            m, n, cfg, dev, streams=streams, lookahead=lookahead
        )
    return res


def enumerate_cholqr2_launches(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    mixed: bool = False,
    guard: bool = False,
) -> Iterator[LaunchSpec]:
    """Yield every kernel launch of a CholeskyQR2 factorization.

    The canonical stream is O(1) launches regardless of ``m``::

        scale                      # column equilibration W = A / s
        (guard gram + guard chol)  # row-sampled precheck, path="auto" only
        gram -> chol -> trsm       # pass 1
        gram -> chol -> trsm       # pass 2 (reorthogonalization)

    The host-side fused small-matrix algebra (skipping the second syrk
    when the condition estimate is tiny) is a CPU-side rewrite of the
    same pass-2 work; the modeled device stream stays the canonical
    two-pass form so fingerprints are pure functions of
    ``(shape, mixed, guard)``.  ``mixed`` halves the pass-1 Gram traffic
    and GEMM cycles (float32 accumulation of a float64 input); the
    Cholesky smalls and both m x n triangular applies stay full
    precision, matching the numeric engine.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    k = min(m, n)
    yield scale_launch(m, k, cfg, dev, tag="scale")
    if guard and m >= 16 * k:
        # Row-sampled condition precheck: a ~(8k) x k Gram plus its
        # Cholesky, ~1% of the full pass-1 cost.
        yield gram_launch(8 * k, k, cfg, dev, tag="guard")
        yield chol_launch(k, cfg, dev, tag="guard")
    for p in (1, 2):
        g = gram_launch(m, k, cfg, dev, tag=f"pass{p}")
        if mixed and p == 1:
            g = replace(
                g,
                cycles_per_block=g.cycles_per_block * 0.5,
                read_bytes_per_block=g.read_bytes_per_block * 0.5,
                write_bytes_per_block=g.write_bytes_per_block * 0.5,
            )
        yield g
        yield chol_launch(k, cfg, dev, tag=f"pass{p}")
        yield trsm_launch(m, k, cfg, dev, tag=f"pass{p}")


def simulate_cholqr2(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    mixed: bool = False,
    guard: bool = False,
) -> CAQRGpuResult:
    """Simulate a CholeskyQR2 factorization of an ``m x n`` matrix.

    Pure shape arithmetic, like :func:`simulate_caqr`; the wide case
    models the leading ``m x m`` square factorization (the trailing
    ``R[:, m:]`` GEMM is not on the fingerprinted stream, mirroring how
    the Householder paths fingerprint only the factorization kernels).
    ``gflops`` stays normalized by the standard SGEQRF flop count so the
    paths are directly comparable.
    """
    tl = Timeline(device=dev)
    for spec in enumerate_cholqr2_launches(m, n, cfg, dev, mixed=mixed, guard=guard):
        tl.launch(spec)
    return CAQRGpuResult(m=m, n=n, config=cfg, device=dev, timeline=tl)


@dataclass
class ShardedGpuResult:
    """Modeled cost of a sharded multi-device CAQR run.

    Per-device compute comes from :func:`simulate_caqr` on the tallest
    shard (the critical rank — shards run concurrently); the fan-in
    reduction adds, per round, the modeled QR of the stacked triangles
    plus the alpha-beta time of moving them over the interconnect.  Pure
    shape arithmetic, so it runs at the 2,000,000 x 1000 target scale.
    """

    m: int
    n: int
    shards: int
    fanin: int
    interconnect: object  # repro.distributed.comm.InterconnectModel
    local: CAQRGpuResult  # tallest shard's modeled factorization
    reduce_seconds: float
    network_seconds: float
    network_messages: int
    network_words: float
    levels: int

    @property
    def seconds(self) -> float:
        return self.local.seconds + self.reduce_seconds + self.network_seconds

    @property
    def standard_flops(self) -> float:
        return qr_flops(self.m, self.n)

    @property
    def gflops(self) -> float:
        return self.standard_flops / self.seconds / 1e9

    def breakdown(self) -> dict[str, float]:
        return {
            "shard_local": self.local.seconds,
            "reduce_compute": self.reduce_seconds,
            "network": self.network_seconds,
        }


def simulate_sharded(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    shards: int = 4,
    fanin: int = 2,
    interconnect=None,
) -> ShardedGpuResult:
    """Simulate sharded CAQR: P concurrent devices + a fan-in R reduction.

    The critical path is the tallest shard's local CAQR, then one
    stacked-triangle QR and one round of triangle transfers per
    reduction level.  The reduction QRs reuse :func:`simulate_caqr` (one
    model, every path); traffic is charged ``alpha + beta * words`` on
    the busiest rank of each round, mirroring
    ``FakeComm.critical_path_words`` on the executed path.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    from repro.distributed.comm import INTERCONNECTS
    from repro.distributed.sharded import build_shard_schedule

    if interconnect is None:
        interconnect = INTERCONNECTS["pcie2"]
    schedule = build_shard_schedule(m, n, shards, fanin)
    s0, e0 = schedule.rows[0]  # tallest shard
    local = simulate_caqr(e0 - s0, n, cfg, dev)
    tri_h = min(n, e0 - s0)  # R-triangle height each rank contributes
    tri_words = tri_h * n - tri_h * (tri_h - 1) / 2.0  # trapezoid entries
    reduce_seconds = 0.0
    messages = 0
    words = 0.0
    for merges in schedule.rounds:
        arity = max(len(srcs) for _dst, srcs in merges) + 1
        stack_rows = max(1, arity * tri_h)
        reduce_seconds += simulate_caqr(stack_rows, n, cfg, dev).seconds
        messages += arity - 1
        words += (arity - 1) * tri_words
    return ShardedGpuResult(
        m=m,
        n=n,
        shards=schedule.shards,
        fanin=schedule.fanin,
        interconnect=interconnect,
        local=local,
        reduce_seconds=reduce_seconds,
        network_seconds=interconnect.seconds(messages, words),
        network_messages=messages,
        network_words=words,
        levels=schedule.levels,
    )


def simulate_form_q(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
) -> CAQRGpuResult:
    """Simulate forming the explicit thin Q (SORGQR-equivalent).

    "Retrieving Q explicitly (SORGQR) using CAQR is just as efficient as
    factoring the matrix" (Section V-C): the same kernels are applied to
    an m x n identity-extended matrix in reverse order, so the launch
    stream — and therefore the model — is the factorization's.
    """
    res = simulate_caqr(m, n, cfg, dev)
    return CAQRGpuResult(m=m, n=n, config=cfg, device=dev, timeline=res.timeline)


def caqr_gpu_factor(
    A: np.ndarray,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    batched: bool = UNSET,
    lookahead: bool = UNSET,
    workers: int | None = UNSET,
    streams: int | None = None,
    nonfinite: str = UNSET,
    policy: ExecutionPolicy | None = None,
) -> tuple[CAQRFactors, CAQRGpuResult]:
    """Execute CAQR numerically *and* produce its simulated GPU timeline.

    The factor structure (panel row-blocking and reduction-tree schedule)
    is built by the same :mod:`repro.core` helpers the launch enumerator
    uses, so the counts agree by construction; a structural-parity test
    pins this.  The numeric execution strategy comes from ``policy`` (or
    the deprecated ``batched``/``lookahead``/``workers``/``nonfinite``
    shims); the panel geometry always follows ``cfg``, keeping numerics
    and modeled timeline on the same schedule.  ``streams`` attaches the
    modeled multi-stream overlap to the result.  The serial simulated
    timeline depends purely on shapes and is identical in every mode.
    """
    default = ExecutionPolicy(
        path="structured" if cfg.structured_tree else "batched",
        panel_width=cfg.panel_width,
        block_rows=cfg.block_rows,
        tree_shape=cfg.tree_shape,
        device=dev,
        config=cfg,
    )
    policy = resolve_policy(
        "caqr_gpu_factor",
        policy,
        batched=batched,
        lookahead=lookahead,
        workers=workers,
        nonfinite=nonfinite,
        default=default,
    )
    # The timeline below is enumerated from ``cfg``; pin the numeric
    # geometry to it so both always run the same schedule.
    policy = replace(
        policy,
        panel_width=cfg.panel_width,
        block_rows=cfg.block_rows,
        tree_shape=cfg.tree_shape,
    )
    A = validate_matrix(A, where="caqr_gpu_factor", nonfinite=policy.nonfinite)
    m, n = A.shape
    factors = caqr(A, policy=policy.with_nonfinite("propagate"))
    result = simulate_caqr(m, n, cfg, dev, streams=streams)
    return factors, result


def caqr_gflops(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
) -> float:
    """Convenience: modeled SGEQRF GFLOP/s for one matrix size."""
    return simulate_caqr(m, n, cfg, dev).gflops
