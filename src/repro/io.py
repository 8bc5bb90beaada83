"""Serialization of implicit QR factors.

A factorization of a million-row matrix is expensive; downstream users
(least-squares solves, repeated Q applications) should not redo it.
These helpers persist :class:`~repro.core.tsqr.TSQRFactors` and
:class:`~repro.core.caqr.CAQRFactors` to NumPy ``.npz`` archives and
restore them fully functional (apply Q/Q^T, form Q).

Structured-tree factors store sparse reflectors and are rebuilt from
their row-support arrays on load.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core.caqr import CAQRFactors, PanelFactor
from .core.structured import StructuredStackFactor, _SparseReflector
from .core.tree import build_tree
from .core.tsqr import TSQRFactors, _LevelZeroFactor, _TreeFactor

__all__ = ["save_tsqr", "load_tsqr", "save_caqr", "load_caqr"]

_FORMAT_VERSION = 1


def _tsqr_payload(f: TSQRFactors, prefix: str = "") -> dict:
    d: dict = {
        f"{prefix}meta": np.array([_FORMAT_VERSION, f.m, f.n, len(f.blocks)], dtype=np.int64),
        f"{prefix}tree_shape": np.array(f.tree.shape),
        f"{prefix}R": f.R,
    }
    for i, blk in enumerate(f.blocks):
        d[f"{prefix}b{i}_rows"] = np.array(blk.rows, dtype=np.int64)
        d[f"{prefix}b{i}_VR"] = blk.VR
        d[f"{prefix}b{i}_tau"] = blk.tau
    d[f"{prefix}n_levels"] = np.array(len(f.tree_factors), dtype=np.int64)
    for lvl, level in enumerate(f.tree_factors):
        d[f"{prefix}L{lvl}_count"] = np.array(len(level), dtype=np.int64)
        for g, tf in enumerate(level):
            base = f"{prefix}L{lvl}g{g}_"
            d[base + "group"] = np.array(tf.group, dtype=np.int64)
            d[base + "heights"] = np.array(tf.heights, dtype=np.int64)
            if tf.structured is not None:
                sf = tf.structured
                d[base + "structured"] = np.array(1, dtype=np.int64)
                d[base + "s_meta"] = np.array([sf.total_rows, sf.n, len(sf.reflectors)], dtype=np.int64)
                d[base + "s_heights"] = np.array(sf.heights, dtype=np.int64)
                d[base + "s_R"] = sf.R
                d[base + "s_flops"] = np.array(sf.flops)
                for ri, r in enumerate(sf.reflectors):
                    d[base + f"s_r{ri}_rows"] = r.rows
                    d[base + f"s_r{ri}_v"] = r.v
                    d[base + f"s_r{ri}_tau"] = np.array(r.tau)
            else:
                d[base + "structured"] = np.array(0, dtype=np.int64)
                d[base + "VR"] = tf.VR
                d[base + "tau"] = tf.tau
    return d


def _tsqr_from_payload(z, prefix: str = "") -> TSQRFactors:
    version, m, n, n_blocks = (int(v) for v in z[f"{prefix}meta"])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported factor-archive version {version}")
    tree_shape = str(z[f"{prefix}tree_shape"])
    blocks = []
    for i in range(n_blocks):
        rows = tuple(int(v) for v in z[f"{prefix}b{i}_rows"])
        blocks.append(
            _LevelZeroFactor(rows=rows, packed=z[f"{prefix}b{i}_VR"], tau=z[f"{prefix}b{i}_tau"])
        )
    tree = build_tree(n_blocks, tree_shape)
    tree_factors = []
    for lvl in range(int(z[f"{prefix}n_levels"])):
        level = []
        for g in range(int(z[f"{prefix}L{lvl}_count"])):
            base = f"{prefix}L{lvl}g{g}_"
            group = tuple(int(v) for v in z[base + "group"])
            heights = tuple(int(v) for v in z[base + "heights"])
            if int(z[base + "structured"]):
                total, sn, n_ref = (int(v) for v in z[base + "s_meta"])
                refl = [
                    _SparseReflector(
                        rows=z[base + f"s_r{ri}_rows"],
                        v=z[base + f"s_r{ri}_v"],
                        tau=float(z[base + f"s_r{ri}_tau"]),
                    )
                    for ri in range(n_ref)
                ]
                sf = StructuredStackFactor(
                    total_rows=total,
                    n=sn,
                    heights=tuple(int(v) for v in z[base + "s_heights"]),
                    reflectors=refl,
                    R=z[base + "s_R"],
                    flops=float(z[base + "s_flops"]),
                )
                level.append(_TreeFactor(group=group, heights=heights, structured=sf))
            else:
                level.append(
                    _TreeFactor(
                        group=group, heights=heights, packed=z[base + "VR"], tau=z[base + "tau"]
                    )
                )
        tree_factors.append(level)
    return TSQRFactors(m=m, n=n, blocks=blocks, tree=tree, tree_factors=tree_factors, R=z[f"{prefix}R"])


def save_tsqr(path: str | Path, factors: TSQRFactors) -> None:
    """Persist a TSQR factorization to a ``.npz`` archive."""
    np.savez_compressed(path, **_tsqr_payload(factors))


def load_tsqr(path: str | Path) -> TSQRFactors:
    """Restore a TSQR factorization saved by :func:`save_tsqr`."""
    with np.load(path, allow_pickle=False) as z:
        return _tsqr_from_payload(z)


def save_caqr(path: str | Path, factors: CAQRFactors) -> None:
    """Persist a CAQR factorization to a ``.npz`` archive."""
    # An unset block_rows (the host default) is stored as 0, which no
    # explicit height can be, and loads back as None.
    br = 0 if factors.block_rows is None else factors.block_rows
    d: dict = {
        "caqr_meta": np.array(
            [_FORMAT_VERSION, factors.m, factors.n, factors.panel_width, br, len(factors.panels)],
            dtype=np.int64,
        ),
        "caqr_tree_shape": np.array(factors.tree_shape),
        "caqr_R": factors.R,
    }
    for i, p in enumerate(factors.panels):
        d[f"p{i}_cols"] = np.array([p.col_start, p.col_stop, p.row_start], dtype=np.int64)
        d.update(_tsqr_payload(p.factors, prefix=f"p{i}_"))
    np.savez_compressed(path, **d)


def load_caqr(path: str | Path) -> CAQRFactors:
    """Restore a CAQR factorization saved by :func:`save_caqr`."""
    with np.load(path, allow_pickle=False) as z:
        version, m, n, pw, br, n_panels = (int(v) for v in z["caqr_meta"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported factor-archive version {version}")
        panels = []
        for i in range(n_panels):
            c0, c1, r0 = (int(v) for v in z[f"p{i}_cols"])
            panels.append(
                PanelFactor(
                    col_start=c0,
                    col_stop=c1,
                    row_start=r0,
                    factors=_tsqr_from_payload(z, prefix=f"p{i}_"),
                )
            )
        return CAQRFactors(
            m=m,
            n=n,
            panel_width=pw,
            block_rows=br or None,
            tree_shape=str(z["caqr_tree_shape"]),
            panels=panels,
            R=z["caqr_R"],
        )
