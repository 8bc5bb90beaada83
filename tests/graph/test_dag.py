"""Structural tests of the CAQR launch DAG (repro.graph.dag)."""

import pytest

from repro.caqr_gpu import enumerate_caqr_launches
from repro.gpusim.device import C2050
from repro.gpusim.launch import time_launch
from repro.graph import emit_caqr_layers, simulate_caqr_overlap
from repro.kernels.config import REFERENCE_CONFIG

SHAPES = [(256, 48), (1000, 192), (4096, 64), (130, 200), (64, 16)]


def _info(task) -> dict:
    return dict(task.info)


@pytest.mark.parametrize("m,n", SHAPES)
def test_graph_validates(m, n):
    tg = emit_caqr_layers(m, n)
    tg.validate()  # deps resolve, no cycles
    assert len(tg) > 0
    # Emission order is the serial program order: every edge points at
    # an earlier task, and no task lists a dependency twice.
    for task in tg.tasks():
        assert all(tg.task(d).seq < task.seq for d in task.deps), task.key
        assert len(set(task.deps)) == len(task.deps), task.key


@pytest.mark.parametrize("m,n", SHAPES)
def test_graph_merges_back_into_serial_stream(m, n):
    """Per (kernel, tag): the split tasks cover the serial launch's blocks."""
    serial = list(enumerate_caqr_launches(m, n))
    tg = emit_caqr_layers(m, n)
    ser = {}
    for spec in serial:
        key = (spec.kernel, spec.tag)
        assert key not in ser, "serial stream repeats a (kernel, tag)"
        ser[key] = spec.n_blocks
    got = {}
    for task in tg.tasks():
        # Split parts carry "/t0" / "/rest" tag suffixes on the serial tag.
        tag = task.spec.tag
        for suffix in ("/t0", "/rest"):
            if tag.endswith(suffix):
                tag = tag[: -len(suffix)]
        key = (task.spec.kernel, tag)
        got[key] = got.get(key, 0) + task.spec.n_blocks
    assert got == ser


def test_lookahead_loosens_factor_deps():
    m, n = 1000, 192
    la = emit_caqr_layers(m, n, lookahead=True)
    bar = emit_caqr_layers(m, n, lookahead=False)
    assert len(la) == len(bar)
    # Same tasks in the same order; look-ahead edges are a subset.
    stricter = 0
    for a, b in zip(la.tasks(), bar.tasks()):
        assert a.key == b.key and a.spec == b.spec
        assert set(a.deps) <= set(b.deps)
        stricter += len(b.deps) - len(a.deps)
    assert stricter > 0
    # The look-ahead factor of panel p>0 depends (transitively through the
    # transpose task) only on the previous panel's *first-tile* updates —
    # never on the wide "rest" launches.
    seen_factor_dep = False
    for task in la.tasks():
        panel = _info(task)["panel"]
        if task.spec.kernel in ("transpose", "factor") and panel > 0:
            prev_upds = [
                _info(la.task(d))
                for d in task.deps
                if _info(la.task(d))["panel"] == panel - 1 and "part" in _info(la.task(d))
            ]
            if prev_upds:
                seen_factor_dep = True
                assert all(info["part"] == "t0" for info in prev_upds)
    assert seen_factor_dep


def test_update_column_intervals_tile_the_trailing_matrix():
    m, n = 1000, 192
    tg = emit_caqr_layers(m, n)
    cfg = REFERENCE_CONFIG
    k = min(m, n)
    for panel, c0 in enumerate(range(0, k, cfg.panel_width)):
        pw_p = min(cfg.panel_width, k - c0)
        upds = [
            t for t in tg.tasks()
            if _info(t)["panel"] == panel and t.spec.kernel == "apply_qt_h"
        ]
        if c0 + pw_p >= n:
            assert not upds
            continue
        cols = sorted(_info(t)["cols"] for t in upds)
        assert cols[0][0] == c0 + pw_p
        assert cols[-1][1] == n
        for (a0, a1), (b0, b1) in zip(cols, cols[1:]):
            assert a1 == b0  # contiguous, non-overlapping


def test_critical_path_below_serial_sum():
    for m, n in [(1000, 192), (100000, 192)]:
        r = simulate_caqr_overlap(m, n, streams=1)
        split_sum = sum(time_launch(t.spec, C2050).seconds for t in r.graph.tasks())
        assert 0 < r.critical_path_seconds < split_sum


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        emit_caqr_layers(0, 5)
    with pytest.raises(ValueError):
        emit_caqr_layers(5, 0)


def test_tile_split_block_counts():
    """The t0/rest split preserves the serial tiling arithmetic."""
    from repro.caqr_gpu import _tile_width

    m, n = 2000, 192
    tg = emit_caqr_layers(m, n)
    cfg = REFERENCE_CONFIG
    for task in tg.tasks():
        info = _info(task)
        if info.get("part") != "t0" or task.spec.kernel != "apply_qt_h":
            continue
        c0 = info["cols"][0]  # first trailing column == next panel start
        pw_p = min(cfg.panel_width, min(m, n) - (c0 - cfg.panel_width))
        bh = max(cfg.block_rows, pw_p)
        wt = n - c0
        tile_w = _tile_width(wt, bh, cfg, C2050)
        assert info["cols"][1] - info["cols"][0] == min(tile_w, wt)
