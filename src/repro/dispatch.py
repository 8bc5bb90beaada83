"""Model-driven QR algorithm selection.

Section V-C: "The crossover point, where CAQR becomes slower than the
best GPU libraries, is around 4000 columns wide.  This suggests an
autotuning framework for QR where a different algorithm may be chosen
depending on the matrix size."  This module builds that framework: the
calibrated performance models predict every engine's runtime for the
requested shape, the dispatcher picks the winner, and — for the engines
implemented numerically in this library — actually runs it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .baselines import CULAQR, MAGMAQR, MKLQR
from .core.blocked import blocked_qr
from .gpusim.device import C2050, DeviceSpec
from .kernels.config import REFERENCE_CONFIG, KernelConfig
from .obs import tracer as _obs
from .runtime import ExecutionPolicy, QRPlan, plan_qr
from .verify.guards import validate_matrix

__all__ = ["EnginePrediction", "DispatchedQR", "QRDispatcher"]


@dataclass(frozen=True)
class EnginePrediction:
    """Modeled runtime of one engine for one matrix shape."""

    engine: str
    seconds: float
    gflops: float


@dataclass
class DispatchedQR:
    """Outcome of a dispatched factorization."""

    engine: str
    Q: np.ndarray
    R: np.ndarray
    predictions: list[EnginePrediction] = field(default_factory=list)
    # True when a CholeskyQR2 policy's condition guard routed this matrix
    # to the Householder tree (path="auto" fallback).
    fell_back: bool = False


class _ShardedLRU:
    """An LRU key-value cache sharded by key hash, one lock per shard.

    The dispatcher's pred/plan caches are shared across serving threads;
    a single global lock serializes *every* lookup even when two hot
    shapes never touch the same entry.  Sharding by ``hash(key)`` keeps
    same-shape requests on one lock (LRU order within a shard stays
    exact) while different shapes proceed in parallel.  Capacity is
    divided across shards, so total size stays ~``capacity`` regardless
    of shard count; ``shards=1`` reproduces the old global-lock cache
    exactly (the LRU-eviction tests pin that configuration).
    """

    def __init__(self, capacity: int, shards: int = 8) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self._per_shard = max(1, -(-capacity // shards))  # ceil division
        self._shards = [OrderedDict() for _ in range(shards)]
        self._locks = [threading.Lock() for _ in range(shards)]

    def _index(self, key) -> int:
        return hash(key) % len(self._shards)

    def lock_for(self, key) -> threading.Lock:
        """The lock guarding ``key``'s shard (contention tests use this)."""
        return self._locks[self._index(key)]

    def get(self, key):
        i = self._index(key)
        with self._locks[i]:
            shard = self._shards[i]
            value = shard.get(key)
            if value is not None:
                shard.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        i = self._index(key)
        with self._locks[i]:
            shard = self._shards[i]
            shard[key] = value
            shard.move_to_end(key)
            while len(shard) > self._per_shard:
                shard.popitem(last=False)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key) -> bool:
        i = self._index(key)
        with self._locks[i]:
            return key in self._shards[i]

    def __iter__(self):
        # Snapshot per shard under its lock; iteration order is
        # per-shard LRU, concatenated (order-insensitive callers only).
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                keys = list(shard)
            yield from keys


class QRDispatcher:
    """Choose (and run) the fastest QR engine for a matrix shape.

    Engines:

    * ``"caqr"`` — this library's GPU CAQR (numerics:
      :func:`repro.core.caqr.caqr_qr`).
    * ``"blocked"`` — blocked Householder, modeled as the best hybrid
      library (MAGMA-style; numerics: :func:`repro.core.blocked.blocked_qr`).
    * ``"mkl"`` — multicore CPU QR (numerics: blocked Householder too —
      the algorithm is the same, only the platform model differs).
    """

    def __init__(
        self,
        device: DeviceSpec = C2050,
        config: KernelConfig = REFERENCE_CONFIG,
        include_cpu: bool = True,
        cache_size: int = 128,
        cache_shards: int = 8,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        self.device = device
        self.config = config
        self.include_cpu = include_cpu
        # The dispatcher's default policy mirrors its KernelConfig: the
        # CAQR engine runs with the modeled geometry it was predicted at.
        self.policy = policy if policy is not None else ExecutionPolicy(
            path="structured" if config.structured_tree else "batched",
            panel_width=config.panel_width,
            block_rows=config.block_rows,
            tree_shape=config.tree_shape,
            device=device,
            config=config,
        )
        self._magma = MAGMAQR(gpu=device)
        self._cula = CULAQR(gpu=device)
        self._mkl = MKLQR()
        # (m, n) -> sorted predictions.  crossover_width probes O(log n)
        # shapes per call and qr() re-predicts per matrix; the models are
        # pure functions of the shape, so memoize them (LRU).  Both
        # caches are sharded by key hash with one lock per shard
        # (dispatchers are shared across serving threads; a global lock
        # would serialize unrelated hot shapes on every hit).
        self._pred_cache = _ShardedLRU(cache_size, cache_shards)
        # (m, n, dtype, engine) -> QRPlan, so dispatch-and-run on repeated
        # shapes skips planning entirely.
        self._plan_cache = _ShardedLRU(cache_size, cache_shards)
        self._cache_size = cache_size
        # (m, max_width) -> crossover column count; small and unbounded
        # in practice (callers probe a handful of heights).
        self._crossover_cache: dict[tuple[int, int], int | None] = {}
        self._crossover_lock = threading.Lock()

    def predict(self, m: int, n: int) -> list[EnginePrediction]:
        """Modeled runtimes, fastest first (cached per shape)."""
        if m < 1 or n < 1:
            raise ValueError("matrix dimensions must be positive")
        key = (m, n)
        cached = self._pred_cache.get(key)
        if cached is not None:
            _obs.counters(pred_cache_hits=1)
            return list(cached)
        _obs.counters(pred_cache_misses=1)
        # The dispatcher's CAQR engine runs whatever path the policy
        # names; predict with that engine's modeled launch stream (the
        # streaming engine has none, and refuses like QRPlan.simulate).
        r = self.policy.engine.simulate(m, n, self.policy, self.config, self.device)
        preds = [EnginePrediction("caqr", r.seconds, r.gflops)]
        best_hybrid = min(
            (self._magma.simulate(m, n), self._cula.simulate(m, n)), key=lambda b: b.seconds
        )
        preds.append(EnginePrediction("blocked", best_hybrid.seconds, best_hybrid.gflops))
        if self.include_cpu:
            b = self._mkl.simulate(m, n)
            preds.append(EnginePrediction("mkl", b.seconds, b.gflops))
        preds.sort(key=lambda p: p.seconds)
        self._pred_cache.put(key, preds)
        return list(preds)

    def plan_for(self, m: int, n: int, dtype=np.float64) -> QRPlan:
        """The (cached) CAQR plan this dispatcher would run for a shape.

        Plans are built outside the lock (planning is the expensive part)
        and inserted last-wins, so concurrent first requests for one shape
        may both plan but always agree on the cached result.
        """
        key = (m, n, np.dtype(dtype).str, "caqr")
        plan = self._plan_cache.get(key)
        if plan is not None:
            _obs.counters(plan_cache_hits=1)
            return plan
        _obs.counters(plan_cache_misses=1)
        plan = plan_qr(m, n, dtype=dtype, policy=self.policy)
        self._plan_cache.put(key, plan)
        return plan

    def choose(self, m: int, n: int) -> EnginePrediction:
        """The fastest engine for this shape under the models."""
        return self.predict(m, n)[0]

    def crossover_width(self, m: int, max_width: int | None = None) -> int | None:
        """Smallest width (by doubling + bisection) where CAQR stops winning.

        Memoized per ``(m, max_width)``: the probe sequence is a pure
        function of the models, and callers (figure 8's frontier, the
        serving admission path) re-ask for the same heights repeatedly.
        """
        max_width = max_width or m
        key = (m, max_width)
        with self._crossover_lock:
            if key in self._crossover_cache:
                return self._crossover_cache[key]
        result = self._crossover_width_uncached(m, max_width)
        with self._crossover_lock:
            if len(self._crossover_cache) >= 4 * self._cache_size:
                self._crossover_cache.clear()  # degenerate caller; stay bounded
            self._crossover_cache[key] = result
        return result

    def _crossover_width_uncached(self, m: int, max_width: int) -> int | None:
        lo, hi = 1, None
        w = 64
        while w <= max_width:
            if self.choose(m, w).engine != "caqr":
                hi = w
                break
            lo = w
            w *= 2
        if hi is None:
            return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.choose(m, mid).engine != "caqr":
                hi = mid
            else:
                lo = mid
        return hi

    def qr(self, A: np.ndarray) -> DispatchedQR:
        """Pick the engine for ``A``'s shape and run the factorization.

        The matrix is validated exactly once here; the cached plan then
        runs with ``validated=True``, so dispatched CAQR scans each input
        a single time end to end.
        """
        with _obs.maybe_trace(self.policy.trace):
            A = validate_matrix(A, where="QRDispatcher.qr", nonfinite=self.policy.nonfinite)
            m, n = A.shape
            with _obs.span("dispatch.qr", cat="dispatch", m=m, n=n):
                preds = self.predict(m, n)
                engine = preds[0].engine
                fell_back = False
                with _obs.span("engine", cat="dispatch", engine=engine):
                    if engine == "caqr":
                        plan = self.plan_for(m, n, dtype=A.dtype)
                        f = plan.factor(A, validated=True)
                        Q, R = f.form_q(), f.R
                        fell_back = bool(getattr(f, "fell_back", False))
                    else:
                        # Blocked Householder is the algorithm behind both the
                        # hybrid GPU libraries and MKL; numerically they coincide.
                        Q, R = blocked_qr(A, nb=64, nonfinite="propagate")
            return DispatchedQR(
                engine=engine, Q=Q, R=R, predictions=preds, fell_back=fell_back
            )
