"""Benchmark: batched small-QR kernels vs the scalar loop.

The Section-I observation made quantitative on the host: thousands of
small QRs batched (vectorized across the batch axis) vs looped; and the
slice-size crossover between the two compact-WY factor kernels behind
``repro.smallblas.wy.GEQRT_MIN_ELEMS``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.householder import geqr2
from repro.smallblas import batched_geqr2
from repro.smallblas import wy

# Slice shapes from the paper's 64x16 block to TSQR's 3200x100 level-0
# block; each timed batch holds about CROSSOVER_ELEMS elements.
CROSSOVER_SHAPES = (
    (64, 16), (128, 16), (256, 16), (512, 16),
    (64, 32), (128, 32), (256, 32),
    (64, 64), (128, 64), (256, 64),
    (100, 100), (200, 100), (800, 100), (3200, 100),
)
CROSSOVER_ELEMS = 1 << 21
CROSSOVER_REPS = 7


def looped_geqr2(stack):
    return [geqr2(stack[i]) for i in range(stack.shape[0])]


def test_bench_batched_geqr2(benchmark):
    stack = np.random.default_rng(0).standard_normal((200, 64, 16))
    VR, tau = benchmark(batched_geqr2, stack)
    assert tau.shape == (200, 16)


def test_bench_looped_geqr2(benchmark):
    stack = np.random.default_rng(0).standard_normal((200, 64, 16))
    out = benchmark(looped_geqr2, stack)
    assert len(out) == 200


def crossover_table(monkeypatch):
    """gufunc ``geqrf`` + ``larft`` vs per-slice ``geqrt``, by slice size.

    Both sides run ``geqr2_blocked`` (the shared factor kernel) with the
    threshold forced one way, timed interleaved (median of
    CROSSOVER_REPS) on a batch of about CROSSOVER_ELEMS elements, so the
    ratio is per element.
    """
    rng = np.random.default_rng(0)
    lines = [
        "| slice | elements | batch | gufunc + larft | geqrt | geqrt speedup |",
        "|---|---|---|---|---|---|",
    ]
    speedup = {}
    for m, n in CROSSOVER_SHAPES:
        b = max(1, CROSSOVER_ELEMS // (m * n))
        S = rng.standard_normal((b, m, n))
        times = {"gufunc": [], "geqrt": []}
        for _ in range(CROSSOVER_REPS):
            for side, threshold in (("gufunc", np.inf), ("geqrt", 0)):
                monkeypatch.setattr(wy, "GEQRT_MIN_ELEMS", threshold)
                t0 = time.perf_counter()
                wy.geqr2_blocked(S)
                times[side].append(time.perf_counter() - t0)
        g, q = np.median(times["gufunc"]), np.median(times["geqrt"])
        speedup[m, n] = g / q
        lines.append(
            f"| {m}x{n} | {m * n} | {b} | {g * 1e3:.1f} ms | {q * 1e3:.1f} ms "
            f"| {g / q:.2f}x |"
        )
    monkeypatch.undo()
    lines.append(f"\nGEQRT_MIN_ELEMS = {wy.GEQRT_MIN_ELEMS}")
    return "\n".join(lines), speedup


def test_bench_geqrt_crossover(benchmark, archive, monkeypatch):
    if wy._lapack is None:
        pytest.skip("SciPy LAPACK not available")
    table, speedup = benchmark.pedantic(
        crossover_table, args=(monkeypatch,), rounds=1, iterations=1
    )
    archive("geqrt_crossover", table)
    assert speedup[3200, 100] > 1.0  # TSQR's level-0 block
