"""Serialization of implicit QR factors.

A factorization of a million-row matrix is expensive; downstream users
(least-squares solves, repeated Q applications) should not redo it.
These helpers persist :class:`~repro.core.tsqr.TSQRFactors` and
:class:`~repro.core.caqr.CAQRFactors` (the look-ahead engine's factors)
to NumPy ``.npz`` archives and restore them fully functional (apply
Q/Q^T, form Q).

Format version 3 stores each TSQR factorization's apply plan as it is:
R, the level-0 height, the tree shape, the level-0 and ragged-tail
``(V, T)`` stacks, and per tree entry its stacked ``(V, T)`` (whichever
kernel merged it: a ``structured`` archive has the members of a dense
one).  The row maps are shape arithmetic and are rebuilt on load from
:func:`~repro.core.tsqr.panel_schedule`.  Each ``V`` is stored with the
layout it had, its slice order and leading dimension (a ``V`` is a view
of LAPACK's packed output, whose strides the GEMMs' bits depend on), so
a loaded factorization applies and forms Q with the bits of the one
that was saved.  Archives of versions 1 (per-node factors) and 2
(structured merges as sparse reflectors) are refused.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core.caqr import CAQRFactors, PanelFactor
from .core.tree import build_tree
from .core.tsqr import TSQRFactors, _WyPlan, panel_schedule

__all__ = ["save_tsqr", "load_tsqr", "save_caqr", "load_caqr"]

_FORMAT_VERSION = 3


def _check_version(meta: np.ndarray) -> list[int]:
    """The archive's metadata after its version, which must be this one's."""
    version, *rest = (int(v) for v in meta)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported factor-archive version {version}")
    return rest


def _put_v(d: dict, key: str, V: np.ndarray) -> None:
    """Store ``(batch, h, k)`` reflectors with their slice order and leading dimension."""
    fortran = V.strides[2] != V.itemsize
    ld = (V.strides[2] if fortran else V.strides[1]) // V.itemsize
    d[key] = V
    d[key + "_layout"] = np.array([fortran, ld], dtype=np.int64)


def _get_v(z, key: str) -> np.ndarray:
    """Reflectors stored by :func:`_put_v`, laid out again as they were."""
    V = z[key]
    fortran, ld = (int(v) for v in z[key + "_layout"])
    b, h, k = V.shape
    if fortran:
        out = np.empty((b, k, ld), dtype=V.dtype)[:, :, :h].transpose(0, 2, 1)
    else:
        out = np.empty((b, h, ld), dtype=V.dtype)[:, :, :k]
    out[...] = V
    return out


def _tsqr_payload(f: TSQRFactors, prefix: str = "") -> dict:
    plan = f.plan
    d: dict = {
        f"{prefix}meta": np.array([_FORMAT_VERSION, f.m, f.n, plan.l0_h], dtype=np.int64),
        f"{prefix}tree_shape": np.array(f.tree.shape),
        f"{prefix}R": f.R,
    }
    if plan.l0_V is not None:
        _put_v(d, f"{prefix}l0_V", plan.l0_V)
        d[f"{prefix}l0_T"] = plan.l0_T
    for _s, _h, Vt, Tt in plan.l0_tail:
        _put_v(d, f"{prefix}tail_V", Vt)
        d[f"{prefix}tail_T"] = Tt
    for lvl, entries in enumerate(plan.levels):
        for e, (_idx, V, T) in enumerate(entries):
            _put_v(d, f"{prefix}L{lvl}e{e}_V", V)
            d[f"{prefix}L{lvl}e{e}_T"] = T
    return d


def _tsqr_from_payload(z, prefix: str = "") -> TSQRFactors:
    m, n, l0_h = _check_version(z[f"{prefix}meta"])
    tree_shape = str(z[f"{prefix}tree_shape"])
    R = z[f"{prefix}R"]
    if m == 0 or n == 0:  # no reflectors: the empty plan
        return TSQRFactors(m, n, build_tree(0, tree_shape), R, _WyPlan(dtype=R.dtype))
    sched = panel_schedule(m, n, l0_h, tree_shape)
    tail = []
    if sched.tail is not None:
        tail.append((*sched.tail, _get_v(z, f"{prefix}tail_V"), z[f"{prefix}tail_T"]))
    levels = [
        [
            (b.idx, _get_v(z, f"{prefix}L{lvl}e{e}_V"), z[f"{prefix}L{lvl}e{e}_T"])
            for e, b in enumerate(batches)
        ]
        for lvl, batches in enumerate(sched.levels)
    ]
    plan = _WyPlan(
        dtype=R.dtype, l0_count=sched.l0_count, l0_h=sched.l0_h,
        l0_V=_get_v(z, f"{prefix}l0_V"), l0_T=z[f"{prefix}l0_T"], l0_tail=tail, levels=levels,
    )
    return TSQRFactors(m=m, n=n, tree=sched.tree, R=R, plan=plan)


def save_tsqr(path: str | Path | BinaryIO, factors: TSQRFactors) -> None:
    """Persist a TSQR factorization to a ``.npz`` archive (a path or a file)."""
    if not isinstance(factors, TSQRFactors):
        raise TypeError(
            f"save_tsqr: cannot archive {type(factors).__name__}; "
            "TSQR archives hold TSQRFactors"
        )
    np.savez_compressed(path, **_tsqr_payload(factors))


def load_tsqr(path: str | Path | BinaryIO) -> TSQRFactors:
    """Restore a TSQR factorization saved by :func:`save_tsqr`."""
    with np.load(path, allow_pickle=False) as z:
        return _tsqr_from_payload(z)


def save_caqr(path: str | Path | BinaryIO, factors: CAQRFactors) -> None:
    """Persist a CAQR factorization to a ``.npz`` archive (a path or a file)."""
    if not isinstance(factors, CAQRFactors):
        raise TypeError(
            f"save_caqr: cannot archive {type(factors).__name__}; "
            "archives hold the look-ahead engine's CAQRFactors"
        )
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


def load_caqr(path: str | Path | BinaryIO) -> CAQRFactors:
    """Restore a CAQR factorization saved by :func:`save_caqr`."""
    with np.load(path, allow_pickle=False) as z:
        m, n, pw, br, n_panels = _check_version(z["caqr_meta"])
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
