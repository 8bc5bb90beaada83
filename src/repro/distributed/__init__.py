"""Distributed-memory TSQR/CAQR over a simulated message-passing fabric.

The setting TSQR was invented for (the paper's Section I citations):
P processors, horizontal matrix slices, R factors combined up a
reduction tree with one message per level — versus Theta(n log P)
messages for column-by-column Householder.  Communication is counted
exactly and charged a calibrated alpha-beta cost
(:class:`~repro.distributed.comm.InterconnectModel`).

One execution path, :mod:`repro.distributed.sharded`, reached through
``ExecutionPolicy(path="sharded", shards=P, fanin=...)``: each rank
factors its row shard on the look-ahead driver, and the per-rank R
factors reduce through a fan-in tree over
:class:`~repro.distributed.comm.FakeComm`.  On a matrix no wider than
one panel this is the classic parallel TSQR, and fan-in 2 is its
binomial tree.  :func:`tsqr_message_lower_bound` and
:func:`householder_message_count` are the analytic message counts the
tree is measured against.
"""

from .comm import (
    DEFAULT_INTERCONNECT,
    INTERCONNECTS,
    CommStats,
    FakeComm,
    InterconnectModel,
    householder_message_count,
    simulated_network_seconds,
    tsqr_message_lower_bound,
)
from .sharded import (
    ShardedCAQRFactors,
    ShardSchedule,
    build_shard_schedule,
    run_sharded,
    sharded_reference_r,
)

__all__ = [
    "CommStats",
    "FakeComm",
    "InterconnectModel",
    "INTERCONNECTS",
    "DEFAULT_INTERCONNECT",
    "simulated_network_seconds",
    "householder_message_count",
    "tsqr_message_lower_bound",
    "ShardSchedule",
    "ShardedCAQRFactors",
    "build_shard_schedule",
    "run_sharded",
    "sharded_reference_r",
]
