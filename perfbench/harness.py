"""Shared measurement machinery: statistics, spans, host facts, roofline.

Everything here is benchmark-side.  Spans are recorded by the benchmark
around calls into the library's public functions; nothing inside
``src/`` is instrumented or modified.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it.

    With ``n`` samples that is the sorted sample at index ``n - 11``
    (exactly ten lie above it).  Fewer than 11 samples support no such
    percentile; the maximum is reported instead and labelled so.
    """
    s = sorted(xs)
    n = len(s)
    if n < 11:
        return float(s[-1]), f"max of {n}"
    return float(s[n - 11]), f"p{100.0 * (n - 10) / n:.1f} of {n}"


def _status_mib(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Reset the kernel's resident high-water mark; return the resident set (MiB).

    After this, ``peak_rss_mb() - <returned value>`` is the peak growth
    above what the process held at the reset (inputs, imports, set-up).
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_mib("VmRSS")


def peak_rss_mb() -> float:
    """Resident high-water mark of this process (MiB) since the last reset."""
    return _status_mib("VmHWM")


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end and parent of each span.

    ``delays`` maps a span name to seconds slept inside that span before
    the wrapped call runs — the self-test's fault injection.
    """

    def __init__(self, delays: dict[str, float]) -> None:
        self.records: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self.delays = delays

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, parent, time.perf_counter(), None]
        self.records.append(rec)
        self._stack.append(len(self.records) - 1)
        try:
            delay = self.delays.get(name)
            if delay:
                time.sleep(delay)
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [r[3] - r[2] for r in self.records if r[0] == name]

    def med(self, name: str) -> float:
        return median(self.durations(name))

    def summary(self) -> dict:
        """Per span name: count, total seconds and the parent span's name."""
        out: dict[str, dict] = {}
        for name, parent, start, end in self.records:
            row = out.setdefault(name, {"n": 0, "total_s": 0.0,
                                        "parent": None if parent is None else self.records[parent][0]})
            row["n"] += 1
            row["total_s"] += end - start
        return out


def wrap_layer(module, attr: str, spans: Spans, name: str):
    """Replace ``module.attr`` with a benchmark wrapper that records ``name``.

    Used where a layer is reached only from inside another public call
    (the ``auto`` plan's tree fallback), so the benchmark's span — and
    any injected delay — sits around that layer in untraced runs too.
    The layer module must look ``attr`` up at call time.
    Returns a function that restores the original.
    """
    original = getattr(module, attr)

    def wrapped(*args, **kwargs):
        with spans.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapped)
    return lambda: setattr(module, attr, original)


# --------------------------------------------------------------------------
# host facts
# --------------------------------------------------------------------------


def llc_bytes() -> tuple[int, str]:
    """Size of the highest-level cache cpu0 reports, and where it came from."""
    best_level, best = -1, 0
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(d, "size")) as fh:
                raw = fh.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(raw[-1:], 1)
        size = int(raw.rstrip("KMG")) * mult
        if level > best_level:
            best_level, best = level, size
    if best:
        return best, f"L{best_level} from sysfs"
    return 32 * 1024**2, "unknown; assumed 32 MiB"


def _openblas_threads() -> int | None:
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy without mode="dicts"
        blas_name = "unknown"
    llc, llc_src = llc_bytes()
    threads = _openblas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads if threads is not None else "library default",
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "llc_mib": llc / 1024**2,
        "llc_source": llc_src,
        "numpy": np.__version__,
    }


# --------------------------------------------------------------------------
# roofline
# --------------------------------------------------------------------------


ROOFLINE_REPS = 3


def host_roofline() -> dict:
    """Measured host denominators: GEMM rate, memory stream rate, LAPACK QR.

    * ``gemm_gflops`` — best of ``ROOFLINE_REPS`` square 2048 float64 GEMMs;
    * ``copy_gbps`` — best of ``ROOFLINE_REPS`` in-place read+write sweeps
      (``a *= 1``) over one float64 array of at least 4x the reported
      last-level cache, counted as 2 x nbytes moved;
    * ``lapack_qr_s`` — median ``np.linalg.qr`` (reduced) at 110592 x 100.
    """
    reps = ROOFLINE_REPS
    rng = np.random.default_rng(12345)
    k = 2048
    a = rng.standard_normal((k, k))
    b = rng.standard_normal((k, k))
    best = math.inf
    for _ in range(reps):
        t = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t)
    gemm = 2.0 * k**3 / best / 1e9
    del a, b

    llc, _ = llc_bytes()
    n = -(-4 * llc // 8)
    buf = np.ones(n)
    best = math.inf
    for _ in range(reps):
        t = time.perf_counter()
        np.multiply(buf, 1.0, out=buf)
        best = min(best, time.perf_counter() - t)
    copy = 2.0 * buf.nbytes / best / 1e9
    copy_mib = buf.nbytes / 1024**2
    del buf

    A = rng.standard_normal((110592, 100))
    ts = []
    for _ in range(reps):
        t = time.perf_counter()
        np.linalg.qr(A)
        ts.append(time.perf_counter() - t)
    return {
        "gemm_gflops": gemm,
        "copy_gbps": copy,
        "copy_array_mib": copy_mib,
        "llc_mib": llc / 1024**2,
        "lapack_qr_s": median(ts),
    }


def roofline_frac(flops: float, nbytes: float, seconds: float, roof: dict) -> float:
    """Achieved rate over min(GEMM rate, stream rate x flops/byte)."""
    bound = min(roof["gemm_gflops"], roof["copy_gbps"] * flops / nbytes)
    return flops / seconds / 1e9 / bound
