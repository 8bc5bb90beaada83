"""Integration tests of the simulated GPU CAQR driver.

Covers: launch-stream structure (Figure 4), structural parity between the
executed factorization and the analytic schedule, and the calibration of
the full model against Table I / Figure 9 shape criteria.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.caqr_gpu import (
    caqr_gpu_factor,
    enumerate_caqr_launches,
    simulate_caqr,
    simulate_form_q,
)
from repro.core.validation import factorization_error, orthogonality_error
from repro.experiments.table1 import PAPER_TABLE1
from repro.gpusim.device import C2050, GTX480
from repro.kernels.config import REFERENCE_CONFIG, KernelConfig


class TestLaunchStream:
    def test_figure4_order_within_panel(self):
        cfg = KernelConfig(block_rows=64, panel_width=16)
        specs = list(enumerate_caqr_launches(64 * 16, 32, cfg))
        names = [s.kernel for s in specs if s.tag.startswith("panel0")]
        # transpose, factor, factor_tree*, apply_qt_h, apply_qt_tree*.
        assert names[0] == "transpose"
        assert names[1] == "factor"
        i = 2
        while names[i] == "factor_tree":
            i += 1
        assert names[i] == "apply_qt_h"
        assert all(nm == "apply_qt_tree" for nm in names[i + 1 :])

    def test_last_panel_has_no_updates(self):
        cfg = KernelConfig(block_rows=64, panel_width=16)
        specs = list(enumerate_caqr_launches(256, 32, cfg))
        last = [s.kernel for s in specs if s.tag.startswith("panel1")]
        assert "apply_qt_h" not in last and "apply_qt_tree" not in last

    def test_no_transpose_without_preprocessing(self):
        cfg = KernelConfig(strategy="regfile_serial", transpose_preprocess=False)
        names = {s.kernel for s in enumerate_caqr_launches(4096, 64, cfg)}
        assert "transpose" not in names

    def test_block_and_group_counts(self):
        cfg = KernelConfig(block_rows=64, panel_width=16)
        specs = list(enumerate_caqr_launches(64 * 16, 16, cfg))
        factor = [s for s in specs if s.kernel == "factor"]
        assert len(factor) == 1
        assert factor[0].n_blocks == 16
        trees = [s for s in specs if s.kernel == "factor_tree"]
        # 16 blocks, quad tree: 4 groups then 1 group.
        assert [t.n_blocks for t in trees] == [4, 1]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_caqr_launches(0, 10))


class TestStructuralParity:
    def test_executed_factors_match_schedule(self, rng):
        """The factor object's structure must agree with the analytic
        launch enumeration: same level-0 block and tree-group counts."""
        cfg = KernelConfig(block_rows=32, panel_width=8)
        m, n = 320, 24
        A = rng.standard_normal((m, n))
        factors, result = caqr_gpu_factor(A, cfg)
        specs = list(enumerate_caqr_launches(m, n, cfg))
        for p_idx, panel in enumerate(factors.panels):
            tag = f"panel{p_idx}"
            f_spec = next(s for s in specs if s.kernel == "factor" and s.tag == tag)
            assert f_spec.n_blocks == panel.factors.tree.n_blocks
            tree_specs = [
                s for s in specs if s.kernel == "factor_tree" and s.tag.startswith(tag + "/")
            ]
            assert len(tree_specs) == panel.factors.tree.n_levels
            for spec, level in zip(tree_specs, panel.factors.tree.levels):
                assert spec.n_blocks == len(level)

    def test_executed_numerics_correct(self, rng):
        A = rng.standard_normal((300, 40))
        factors, result = caqr_gpu_factor(A, KernelConfig(block_rows=32, panel_width=8))
        Q = factors.form_q()
        assert factorization_error(A, Q, factors.R) < 1e-12
        assert orthogonality_error(Q) < 1e-12
        assert result.seconds > 0


class TestModelCalibration:
    @pytest.mark.parametrize("height", sorted(PAPER_TABLE1))
    def test_table1_caqr_band(self, height):
        """Model within +-35% of every Table I CAQR entry."""
        model = simulate_caqr(height, 192).gflops
        paper = PAPER_TABLE1[height][0]
        assert 0.65 * paper <= model <= 1.35 * paper

    def test_gflops_saturate_with_height(self):
        vals = [simulate_caqr(h, 192).gflops for h in (1_000, 10_000, 100_000, 1_000_000)]
        assert vals == sorted(vals)
        # Saturation: the last doubling gains little.
        assert vals[-1] / simulate_caqr(500_000, 192).gflops < 1.05

    def test_performance_insensitive_to_width_regime(self):
        """'Performance is good regardless of the width of the matrix':
        at 8192 rows, even 64 columns must exceed every library."""
        from repro.baselines import CULAQR, MAGMAQR, MKLQR

        c = simulate_caqr(8192, 64).gflops
        assert c > MAGMAQR().simulate(8192, 64).gflops * 3
        assert c > CULAQR().simulate(8192, 64).gflops * 3
        assert c > MKLQR().simulate(8192, 64).gflops * 3

    def test_flop_overhead_modest(self):
        """CAQR's redundant tree flops are a bounded overhead (<30%)."""
        r = simulate_caqr(1_000_000, 192)
        assert 1.0 < r.flop_overhead < 1.3

    def test_apply_qt_h_dominates_time(self):
        """The trailing update is the workhorse kernel at scale."""
        bd = simulate_caqr(1_000_000, 192).breakdown()
        assert bd["apply_qt_h"] == max(bd.values())

    def test_form_q_as_efficient_as_factorization(self):
        f = simulate_caqr(100_000, 100)
        q = simulate_form_q(100_000, 100)
        assert q.seconds == pytest.approx(f.seconds)

    def test_gtx480_faster_than_c2050(self):
        assert (
            simulate_caqr(100_000, 100, dev=GTX480).seconds
            < simulate_caqr(100_000, 100, dev=C2050).seconds
        )

    def test_counters_track_launches(self):
        r = simulate_caqr(10_000, 64)
        assert r.counters.kernel_launches == len(r.timeline.events)
        assert r.counters.flops > r.standard_flops  # redundant tree work

    def test_wide_matrix_supported(self):
        r = simulate_caqr(1024, 4096)
        assert r.seconds > 0

    def test_communication_avoidance_vs_blas2(self):
        """CAQR's DRAM traffic is far below a BLAS2 QR's O(m n^2) bytes."""
        m, n = 100_000, 192
        r = simulate_caqr(m, n)
        blas2_bytes = 3.0 * 4.0 * m * n * n / 2.0
        assert r.counters.gmem_bytes < 0.35 * blas2_bytes
