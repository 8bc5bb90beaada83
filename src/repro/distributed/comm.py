"""A simulated message-passing communicator with communication accounting.

TSQR originated in distributed memory (the paper's Section I: applied
"in distributed memory machines and grid environments where
communication is exceptionally expensive").  This module provides an
MPI-like substrate to reproduce that setting without MPI: ``P`` ranks
run as callables over an in-process fabric; every ``send`` is counted
(messages and words) and charged an alpha-beta cost
(``alpha + beta * words``), the standard distributed-communication
model the TSQR lower bounds are stated in.

Execution is round-based and deterministic: ranks are generator-style
steppers driven by a simple scheduler, which is all the tree-structured
collectives here require.  The ``tag`` of each message names its
reduction round (tree level), and per-tag counters feed the default
critical-path estimate: levels are sequential barriers, so the path is
the sum over levels of the busiest rank *within* each level — never the
whole-run total of any single rank, which double-counts a forwarded
triangle (received at one level, sent at the next) whenever the
forwarder happens to be globally busiest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CommStats",
    "FakeComm",
    "InterconnectModel",
    "INTERCONNECTS",
    "DEFAULT_INTERCONNECT",
    "householder_message_count",
    "simulated_network_seconds",
    "tsqr_message_lower_bound",
]


@dataclass
class CommStats:
    """Per-rank communication counters."""

    messages_sent: int = 0
    words_sent: float = 0.0
    messages_received: int = 0
    words_received: float = 0.0


@dataclass(frozen=True)
class InterconnectModel:
    """A calibrated alpha-beta link model: ``alpha + beta * words``.

    The same accounting discipline :mod:`repro.gpusim` applies to
    global-memory bytes, applied to inter-rank traffic: ``alpha_us`` is
    the per-message latency in microseconds, ``beta_ns_per_word`` the
    per-word (matrix element) transfer cost in nanoseconds.
    """

    name: str
    alpha_us: float
    beta_ns_per_word: float

    def seconds(self, messages: float, words: float) -> float:
        """Alpha-beta time for a message/word count on the critical path."""
        return messages * self.alpha_us * 1e-6 + words * self.beta_ns_per_word * 1e-9


#: Calibrated presets, latency-dominant from left to right.  ``pcie2``
#: is the multi-GPU-in-one-node setting of the paper's era (Fermi boards
#: on PCIe 2.0: ~10 us software latency, ~8 GB/s per direction — 1 ns
#: per 8-byte word); the cluster/ethernet/grid rows are the network
#: models :mod:`repro.experiments.distributed_study` prices the sharded
#: path's counted traffic under.
INTERCONNECTS: dict[str, InterconnectModel] = {
    "pcie2": InterconnectModel("pcie2 (10 us, 1 ns/w)", 10.0, 1.0),
    "cluster": InterconnectModel("cluster (1 us, 2 ns/w)", 1.0, 2.0),
    "ethernet": InterconnectModel("ethernet (50 us, 10 ns/w)", 50.0, 10.0),
    "grid": InterconnectModel("grid (10 ms, 100 ns/w)", 10_000.0, 100.0),
}

DEFAULT_INTERCONNECT = "pcie2"


@dataclass
class FakeComm:
    """A P-rank in-process communicator (blocking send/recv semantics).

    Unlike real MPI, delivery is instantaneous — the *costs* are what we
    measure, via :class:`CommStats` and :func:`simulated_network_seconds`.
    """

    size: int
    stats: list[CommStats] = field(default_factory=list)
    _mail: dict[tuple[int, int, int], list] = field(default_factory=dict)
    # tag -> rank -> per-level counters (tags name reduction rounds).
    _level_stats: dict[int, dict[int, CommStats]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("communicator needs at least one rank")
        self.stats = [CommStats() for _ in range(self.size)]

    def _check_rank(self, r: int) -> None:
        if not (0 <= r < self.size):
            raise ValueError(f"rank {r} outside communicator of size {self.size}")

    @staticmethod
    def _words(payload) -> float:
        if isinstance(payload, np.ndarray):
            return float(payload.size)
        return 1.0

    def send(self, payload, src: int, dst: int, tag: int = 0) -> None:
        """Deposit a message (copies arrays — no aliasing across ranks)."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError("self-sends are not allowed")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        self._mail.setdefault((src, dst, tag), []).append(payload)
        w = self._words(payload)
        self.stats[src].messages_sent += 1
        self.stats[src].words_sent += w
        self.stats[dst].messages_received += 1
        self.stats[dst].words_received += w
        level = self._level_stats.setdefault(tag, {})
        s = level.setdefault(src, CommStats())
        s.messages_sent += 1
        s.words_sent += w
        d = level.setdefault(dst, CommStats())
        d.messages_received += 1
        d.words_received += w

    def recv(self, src: int, dst: int, tag: int = 0):
        """Retrieve the oldest matching message (raises if none)."""
        self._check_rank(src)
        self._check_rank(dst)
        queue = self._mail.get((src, dst, tag))
        if not queue:
            raise LookupError(f"no message from {src} to {dst} with tag {tag}")
        return queue.pop(0)

    # -- aggregate accounting ------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_words(self) -> float:
        return sum(s.words_sent for s in self.stats)

    def max_messages_per_rank(self) -> int:
        return max(s.messages_sent + s.messages_received for s in self.stats)

    # -- critical path -------------------------------------------------------

    def critical_path_messages(self) -> int:
        """Critical-path message count: per-level maxima, summed.

        Message tags name reduction rounds, and rounds are sequential
        barriers, so the path through the whole exchange is the busiest
        rank of each level in turn.  Within a level a rank serializes
        its own sends and receives (a fan-in of arity ``a`` costs the
        surviving rank ``a - 1`` sequential receives).
        """
        return sum(
            max(s.messages_sent + s.messages_received for s in level.values())
            for level in self._level_stats.values()
        )

    def critical_path_words(self) -> float:
        """Critical-path word count: per-level maxima, summed.

        Unlike the busiest rank's whole-run ``words_sent +
        words_received``, this never charges a forwarded triangle twice
        to one rank across levels — each level contributes only the
        words the busiest rank of *that* level moved.
        """
        return sum(
            max(s.words_sent + s.words_received for s in level.values())
            for level in self._level_stats.values()
        )


def simulated_network_seconds(
    comm: FakeComm,
    alpha_us: float = 1.0,
    beta_ns_per_word: float = 2.0,
    critical_path_messages: int | None = None,
    critical_path_words: float | None = None,
) -> float:
    """Alpha-beta communication time.

    With tree collectives the critical path is what matters; pass the
    per-path counts when known (e.g. ``log2 P`` rounds for TSQR),
    otherwise they default to the per-level maxima the communicator
    recorded (tags name levels): the busiest rank of each level, summed
    across levels.
    """
    if critical_path_messages is None:
        critical_path_messages = comm.critical_path_messages()
    if critical_path_words is None:
        critical_path_words = comm.critical_path_words()
    return critical_path_messages * alpha_us * 1e-6 + critical_path_words * beta_ns_per_word * 1e-9


def tsqr_message_lower_bound(p: int) -> int:
    """Messages on the critical path of any reduction over P ranks."""
    return max(0, math.ceil(math.log2(max(p, 1))))


def householder_message_count(n: int, p: int) -> int:
    """ScaLAPACK-style column-by-column Householder: one reduction (and
    broadcast) per column — Theta(n log P) critical-path messages."""
    return 2 * n * tsqr_message_lower_bound(p)
