"""Ablations of the design decisions DESIGN.md calls out.

1. Reduction-tree shape (Section IV-C): arity 2 / 4 / 8 / flat.
2. Transpose preprocessing on/off (Section IV-E approach 3 vs 4).
3. Panel width sweep.
4. Where the panel is factored (Section III): GPU-only CAQR vs the
   hybrid option that ships each panel to the CPU for TSQR.
5. Reduction strategy used inside the full CAQR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.cpu import CPUPanelModel
from repro.caqr_gpu import simulate_caqr
from repro.core.tree import build_tree
from repro.core.tsqr import level0_rows, row_blocks
from repro.gpusim.device import C2050, NEHALEM_8CORE, PCIE_GEN2, CPUSpec, DeviceSpec, PCIeLink
from repro.kernels.config import REFERENCE_CONFIG, KernelConfig

from .report import format_table

__all__ = [
    "AblationRow",
    "tree_shape_ablation",
    "transpose_ablation",
    "panel_width_ablation",
    "strategy_ablation",
    "hybrid_panel_ablation",
    "format_rows",
]


@dataclass(frozen=True)
class AblationRow:
    label: str
    m: int
    n: int
    gflops: float
    seconds: float


def _row(label: str, m: int, n: int, cfg: KernelConfig, dev: DeviceSpec) -> AblationRow:
    r = simulate_caqr(m, n, cfg, dev)
    return AblationRow(label=label, m=m, n=n, gflops=r.gflops, seconds=r.seconds)


def tree_shape_ablation(
    m: int = 500_000,
    n: int = 192,
    dev: DeviceSpec = C2050,
) -> list[AblationRow]:
    """Vary the reduction arity by varying the block height.

    The arity is ``block_rows / panel_width`` (Section IV-C), so height
    32 gives a binary tree, 64 the paper's quad-tree, 128 arity 8.
    Shallower trees mean fewer kernel launches and fewer tree levels but
    shorter level-0 reductions.
    """
    rows = []
    for bh, label in ((32, "binary (32x16)"), (64, "quad (64x16)"), (128, "arity-8 (128x16)"), (256, "arity-16 (256x16)")):
        cfg = REFERENCE_CONFIG.with_(block_rows=bh)
        rows.append(_row(f"tree {label}", m, n, cfg, dev))
    return rows


def transpose_ablation(
    m: int = 500_000,
    n: int = 192,
    dev: DeviceSpec = C2050,
) -> list[AblationRow]:
    """Approach 4 (transposed panels) vs approach 3 (no preprocessing).

    Without the out-of-place transpose the kernels read global memory
    with strided, uncoalesced accesses (strategy ``regfile_serial``);
    with it they are coalesced but pay a bandwidth-bound preprocessing
    pass per panel.
    """
    with_t = REFERENCE_CONFIG.with_(strategy="regfile_transpose", transpose_preprocess=True)
    without = REFERENCE_CONFIG.with_(strategy="regfile_serial", transpose_preprocess=False)
    return [
        _row("transpose preprocessing ON", m, n, with_t, dev),
        _row("transpose preprocessing OFF", m, n, without, dev),
    ]


def panel_width_ablation(
    m: int = 500_000,
    widths: tuple[int, ...] = (8, 16, 32),
    n: int = 192,
    dev: DeviceSpec = C2050,
) -> list[AblationRow]:
    """Panel width: narrower panels mean more panels and launches; wider
    panels mean more BLAS2-like factor work per block."""
    rows = []
    for pw in widths:
        cfg = REFERENCE_CONFIG.with_(panel_width=pw, block_rows=max(REFERENCE_CONFIG.block_rows, pw))
        rows.append(_row(f"panel width {pw}", m, n, cfg, dev))
    return rows


def strategy_ablation(
    m: int = 500_000,
    n: int = 192,
    dev: DeviceSpec = C2050,
) -> list[AblationRow]:
    """Full-CAQR impact of the Section IV-E strategy choice."""
    rows = []
    for s in ("smem_parallel", "smem_serial", "regfile_serial", "regfile_transpose"):
        cfg = REFERENCE_CONFIG.with_(strategy=s, transpose_preprocess=(s == "regfile_transpose"))
        rows.append(_row(f"strategy {s}", m, n, cfg, dev))
    return rows


def simulate_hybrid_caqr(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    cpu: CPUSpec = NEHALEM_8CORE,
    link: PCIeLink = PCIE_GEN2,
) -> float:
    """Section III option 1: CPU panel TSQR + GPU trailing update.

    Per panel: ship the panel over PCIe, factor it with a cache-friendly
    TSQR on the CPU (flop-bound, unlike the BLAS2 panel of blocked
    Householder), ship the factors back, then run the same GPU trailing
    updates as the GPU-only driver.  Returns total seconds.
    """
    from repro.kernels.costs import apply_qt_h_launch, apply_qt_tree_launch
    from repro.gpusim.launch import time_launch

    k = min(m, n)
    pw = cfg.panel_width
    total = 0.0
    panel_model = CPUPanelModel(cpu, cache_resident=True)
    for c0 in range(0, k, pw):
        pw_p = min(pw, k - c0)
        hp = m - c0
        bh = level0_rows(cfg.block_rows, pw_p)
        nb0 = len(row_blocks(hp, bh))
        tree = build_tree(nb0, cfg.tree_shape)
        panel_bytes = hp * pw_p * 4.0
        # CPU TSQR: one streaming pass, flop-bound at BLAS3-like rate.
        tsqr_flops = 2.0 * hp * pw_p * pw_p
        cpu_t = max(
            tsqr_flops / (cpu.peak_gflops * 1e9 * 0.5),
            2.0 * panel_bytes / (cpu.mem_bw_gbs * 1e9),
        ) + cpu.thread_fork_us * 1e-6
        total += link.transfer_seconds(panel_bytes) + cpu_t + link.transfer_seconds(panel_bytes)
        wt = n - (c0 + pw_p)
        if wt > 0:
            tiles = math.ceil(wt / pw_p)
            total += time_launch(apply_qt_h_launch(nb0 * tiles, bh, pw_p, pw_p, cfg, dev), dev).seconds
            for level in tree.levels:
                arity = max(len(g) for g in level)
                total += time_launch(
                    apply_qt_tree_launch(len(level) * tiles, arity, pw_p, pw_p, cfg, dev), dev
                ).seconds
    return total


def hybrid_panel_ablation(
    heights: tuple[int, ...] = (10_000, 100_000, 1_000_000),
    n: int = 192,
    dev: DeviceSpec = C2050,
) -> list[AblationRow]:
    """GPU-only (the paper's choice) vs hybrid CPU-panel CAQR."""
    from repro.core.householder import qr_flops

    rows = []
    for h in heights:
        gpu_only = simulate_caqr(h, n, REFERENCE_CONFIG, dev)
        rows.append(AblationRow(f"GPU-only  h={h}", h, n, gpu_only.gflops, gpu_only.seconds))
        t = simulate_hybrid_caqr(h, n, REFERENCE_CONFIG, dev)
        rows.append(AblationRow(f"hybrid    h={h}", h, n, qr_flops(h, n) / t / 1e9, t))
    return rows


def format_rows(rows: list[AblationRow], title: str) -> str:
    return format_table(
        ["configuration", "m", "n", "GFLOPS", "seconds"],
        [(r.label, r.m, r.n, r.gflops, r.seconds) for r in rows],
        title=title,
        float_fmt="{:.3f}",
    )
