"""The CAQR launch stream as task-graph layers.

:func:`repro.caqr_gpu.enumerate_caqr_launches` yields the Figure-4 host
stream in serial order; :func:`emit_caqr_layers` compiles the same
kernels into a :class:`~repro.graph.highlevel.TaskGraph` of three named
layers carrying their *data* dependencies:

* ``panel`` — the optional transpose preprocess plus the level-0 block
  Householder factorization of each panel;
* ``tree`` — the R-reduction tree levels
  (``factor -> factor_tree(L0) -> factor_tree(L1) -> ...``: each level
  eliminates the previous level's Rs);
* ``trailing`` — the Qᵀ applications: ``apply_qt_h`` needs the panel's
  level-0 factors; each ``apply_qt_tree`` level needs its tree factors
  plus the previous update level *on the same columns*.  Across panels,
  a launch touching columns ``[a, b)`` depends on the previous panel's
  trailing updates that wrote any of those columns.

The one structural change versus the serial stream is that each trailing
update is split into a *first-tile* launch (the columns of the next
panel) and a *rest* launch covering the remaining tiles.  Splitting
preserves the total block count and the per-block cost, but exposes the
look-ahead edge: ``factor(k+1)`` intersects only the first tile, so the
panel critical path can run ahead while the wide rest of the trailing
matrix is still updating.  With ``lookahead=False`` the next panel
instead depends on *every* update of the previous panel — the serial
driver's barrier, in graph form.

Every task carries its :class:`~repro.gpusim.launch.LaunchSpec` and
its ``panel`` / ``level`` / ``part`` / ``cols`` in ``info``, so the
graph alone is what the overlap simulator schedules
(:func:`repro.gpusim.concurrent.list_schedule_graph`) and walks for the
critical path.  The serial enumeration itself is untouched — fingerprints
pinned in ``tests/data/fingerprints.json`` hash that stream, and a
structural test checks the graph merges back into it launch for launch.
"""

from __future__ import annotations

import math

from repro.core.tree import build_tree
from repro.core.tsqr import level0_rows, row_blocks
from repro.gpusim.device import C2050, DeviceSpec
from repro.graph.highlevel import TaskGraph
from repro.kernels.config import REFERENCE_CONFIG, KernelConfig
from repro.kernels.costs import (
    apply_qt_h_split_launches,
    apply_qt_tree_split_launches,
    factor_launch,
    factor_tree_launch,
    transpose_launch,
)

__all__ = ["emit_caqr_layers"]


def _tile_width(wt: int, bh: int, cfg: KernelConfig, dev: DeviceSpec) -> int:
    # Deferred: caqr_gpu imports kernels/gpusim, and this module is below
    # it in the layering; the tile-width policy must be *shared* (the
    # split launches must tile exactly like the serial enumeration).
    from repro.caqr_gpu import _tile_width as tw

    return tw(wt, bh, cfg, dev)


def emit_caqr_layers(
    m: int,
    n: int,
    cfg: KernelConfig = REFERENCE_CONFIG,
    dev: DeviceSpec = C2050,
    lookahead: bool = True,
) -> TaskGraph:
    """Compile one CAQR factorization into panel/tree/trailing layers.

    Tasks are emitted in the serial program order, so emission order is
    already a topological order.  Keys are structured tuples::

        ("transpose", p)            optional panel preprocess
        ("factor", p)               level-0 panel factorization
        ("factor_tree", p, lvl)     tree reduction level
        ("apply_h", p, part)        split level-0 trailing update
        ("apply_tree", p, lvl, part)  split tree-level trailing update

    Every task carries its :class:`~repro.gpusim.launch.LaunchSpec`, so
    the emitted graph is model-complete: it can be list-scheduled onto
    streams, walked for its critical path, or statically ordered,
    without re-deriving anything.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    tg = TaskGraph(name=f"caqr[{m}x{n}]{'' if lookahead else '/barrier'}")
    # No priority annotations: the panel/tree chain already heads the
    # longest dependency chains, so the critical-path term of the static
    # order advances it first on its own — a hard layer priority would
    # also starve the wide trailing launches that must issue early for
    # the stream model to hide their overheads.
    tg.add_layer("panel")
    tg.add_layer("tree")
    tg.add_layer("trailing")

    k = min(m, n)
    pw = cfg.panel_width

    # Trailing-update tasks of the previous panel: (key, (col_lo, col_hi)).
    prev_updates: list[tuple[tuple, tuple[int, int]]] = []

    for panel, c0 in enumerate(range(0, k, pw)):
        pw_p = min(pw, k - c0)
        r0 = c0
        hp = m - r0
        bh = level0_rows(cfg.block_rows, pw_p)
        nb0 = len(row_blocks(hp, bh))
        tree = build_tree(nb0, cfg.tree_shape)
        arities = tree.level_arities()
        tag = f"panel{panel}"

        def data_deps(lo: int, hi: int) -> list[tuple]:
            """Previous-panel updates this column interval must wait for."""
            if not lookahead:
                return [key for key, _ in prev_updates]
            return [key for key, (a, b) in prev_updates if a < hi and lo < b]

        panel_cols = (c0, c0 + pw_p)
        chain: list[tuple] = data_deps(*panel_cols)
        if cfg.transpose_preprocess and cfg.strategy == "regfile_transpose":
            t_key = tg.add_task(
                "panel",
                ("transpose", panel),
                deps=chain,
                spec=transpose_launch(hp, pw_p, cfg, dev, tag=tag),
                panel=panel,
                cols=panel_cols,
            )
            chain = [t_key]
        f_key = tg.add_task(
            "panel",
            ("factor", panel),
            deps=chain,
            spec=factor_launch(nb0, bh, pw_p, cfg, dev, tag=tag),
            panel=panel,
            cols=panel_cols,
        )
        ft_keys: list[tuple] = []
        prev = f_key
        for lvl, level in enumerate(tree.levels):
            prev = tg.add_task(
                "tree",
                ("factor_tree", panel, lvl),
                deps=[prev],
                spec=factor_tree_launch(
                    len(level), arities[lvl], pw_p, cfg, dev, tag=f"{tag}/L{lvl}"
                ),
                panel=panel,
                level=lvl,
                cols=panel_cols,
            )
            ft_keys.append(prev)

        updates: list[tuple[tuple, tuple[int, int]]] = []
        wt = n - (c0 + pw_p)
        if wt > 0:
            tile_w = _tile_width(wt, bh, cfg, dev)
            tiles = math.ceil(wt / tile_w)
            t0_cols = (c0 + pw_p, min(c0 + pw_p + tile_w, n))
            rest_cols = (t0_cols[1], n)
            h_first, h_rest = apply_qt_h_split_launches(
                nb0, bh, pw_p, tile_w, tiles, cfg, dev, tag=tag
            )
            parts = [("t0", h_first, t0_cols)]
            if h_rest is not None:
                parts.append(("rest", h_rest, rest_cols))
            # chains[part] tracks the latest update on that column slice.
            chains: dict[str, tuple] = {}
            for part, spec, cols in parts:
                key = tg.add_task(
                    "trailing",
                    ("apply_h", panel, part),
                    deps=[f_key] + data_deps(*cols),
                    spec=spec,
                    panel=panel,
                    part=part,
                    cols=cols,
                )
                chains[part] = key
                updates.append((key, cols))
            for lvl, level in enumerate(tree.levels):
                t_first, t_rest = apply_qt_tree_split_launches(
                    len(level), arities[lvl], pw_p, tile_w, tiles, cfg, dev, tag=f"{tag}/L{lvl}"
                )
                lvl_parts = [("t0", t_first, t0_cols)]
                if t_rest is not None:
                    lvl_parts.append(("rest", t_rest, rest_cols))
                for part, spec, cols in lvl_parts:
                    key = tg.add_task(
                        "trailing",
                        ("apply_tree", panel, lvl, part),
                        deps=[ft_keys[lvl], chains[part]],
                        spec=spec,
                        panel=panel,
                        level=lvl,
                        part=part,
                        cols=cols,
                    )
                    chains[part] = key
                    updates.append((key, cols))
        prev_updates = updates

    tg.validate()
    return tg
