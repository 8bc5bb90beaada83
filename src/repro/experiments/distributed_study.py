"""Distributed-memory communication study: TSQR vs column Householder.

The original TSQR argument (the paper's Section I citations): on P
processors a reduction-tree QR needs ``log2 P`` critical-path messages
regardless of the column count, while column-by-column Householder pays
two collectives per column — ``2 n log2 P``.  This study factors each
matrix on the sharded path (``ExecutionPolicy(path="sharded",
shards=P)``: P simulated ranks, a binomial reduction tree), reads the
traffic its communicator counted, and prices both algorithms under
alpha-beta network models from fast interconnects to grid computing
("where communication is exceptionally expensive", the Agullo et al.
setting the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.caqr import caqr
from repro.distributed import INTERCONNECTS, householder_message_count, tsqr_message_lower_bound
from repro.runtime import ExecutionPolicy

from .report import format_table

__all__ = ["NETWORKS", "DistributedRow", "run", "format_results"]

#: (name, alpha in us, beta in ns/word) of the cluster, ethernet and grid
#: interconnects — per-message latency dominates progressively more as
#: we move right.
NETWORKS = tuple(
    (ic.name, ic.alpha_us, ic.beta_ns_per_word)
    for ic in (INTERCONNECTS[k] for k in ("cluster", "ethernet", "grid"))
)


@dataclass(frozen=True)
class DistributedRow:
    p: int
    n: int
    tsqr_messages: int
    hh_messages: int
    tsqr_words: float
    network_speedups: dict  # network name -> householder/tsqr comm-time ratio


def run(
    ps: tuple[int, ...] = (4, 16, 64, 256),
    n: int = 32,
    rows_per_rank: int = 64,
) -> list[DistributedRow]:
    rows = []
    rng = np.random.default_rng(0)
    for p in ps:
        A = rng.standard_normal((p * rows_per_rank, n))
        comm = caqr(A, policy=ExecutionPolicy(path="sharded", shards=p)).comm
        # One rank sends nothing (and builds no communicator).
        tsqr_msgs = comm.critical_path_messages() if comm is not None else 0
        tsqr_words = comm.critical_path_words() if comm is not None else 0.0
        hh_msgs = householder_message_count(n, p)
        hh_words = 2.0 * n * tsqr_message_lower_bound(p) * n  # column pieces
        speedups = {}
        for name, alpha_us, beta_ns in NETWORKS:
            t_tsqr = tsqr_msgs * alpha_us * 1e-6 + tsqr_words * beta_ns * 1e-9
            t_hh = hh_msgs * alpha_us * 1e-6 + hh_words * beta_ns * 1e-9
            speedups[name] = t_hh / t_tsqr if t_tsqr > 0 else float("inf")
        rows.append(
            DistributedRow(
                p=p,
                n=n,
                tsqr_messages=tsqr_msgs,
                hh_messages=hh_msgs,
                tsqr_words=tsqr_words,
                network_speedups=speedups,
            )
        )
    return rows


def format_results(rows: list[DistributedRow]) -> str:
    headers = ["P", "TSQR msgs", "HH msgs"] + [f"speedup: {name}" for name, _, _ in NETWORKS]
    body = []
    for r in rows:
        body.append(
            [r.p, r.tsqr_messages, r.hh_messages]
            + [r.network_speedups[name] for name, _, _ in NETWORKS]
        )
    return format_table(
        headers,
        body,
        title=f"Distributed TSQR vs column Householder (n={rows[0].n if rows else '?'}, critical-path alpha-beta model)",
        float_fmt="{:.0f}x",
    )
