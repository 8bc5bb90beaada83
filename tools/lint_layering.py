#!/usr/bin/env python
"""Layering lint: path names in the engine table, the tree walk and the
tree merge in TSQR, threads in serving.

Every execution-path decision goes through the engine table,
``PATHS`` in :mod:`repro.runtime.policy`: each of the eight path names
maps to one engine and a few flags there, and every other module asks
the policy (``policy.engine``, ``policy.spec``, ``policy.uses_*``)
instead of spelling a path name.  So a ``.path`` attribute compared
with a string literal, or a tuple of them (``==``, ``!=``, ``in``,
``not in``), is a violation anywhere outside the table module: a new
path would silently skip that comparison.  ``x.path is None`` and ``Path`` checks such as
``self.path.exists()`` are not comparisons with a literal and pass.

The same ownership rule covers the CholeskyQR2 condition guard: every
accept/reject threshold and fallback decision is a *policy*, so
constructing :class:`repro.runtime.cholqr.CholQRGuard` (directly or via
``CholQRGuard.for_policy``) anywhere outside ``repro.runtime`` is a
violation; the threshold itself rides on
``ExecutionPolicy.condition_limit``.

The serving subsystem gets the same treatment: constructing
:class:`repro.serving.coalesce.CoalescingQueue` anywhere outside
``repro.serving`` is a violation — queue depth, overflow disposition and
the coalescing window are admission-control policy owned by
:class:`~repro.serving.server.QRServer`, and a privately built queue
would bypass backpressure accounting and the per-tenant obs spans.

So does the distributed subsystem: constructing
:class:`repro.distributed.comm.FakeComm` anywhere outside
``repro.distributed`` is a violation — the communicator's per-level
counters feed the critical-path accounting and the alpha-beta interconnect
charges, so a privately built communicator would produce traffic no
scaling report or gate ever sees.  Code wanting a sharded run goes
through ``ExecutionPolicy(path="sharded", shards=P)``.

The task-graph layer gets the same treatment: constructing
:class:`repro.graph.highlevel.TaskGraph` (or a raw ``Layer``) anywhere
outside ``repro.graph`` and the registered producers
(:data:`repro.graph.highlevel.PRODUCERS`) is a violation — the graph's
fingerprint is a CI-pinned artifact, so every layer emission must go
through a producer the registry (and the fingerprint gate) knows about.
Consumers receive a built ``TaskGraph``; they never assemble one.

The streaming subsystem gets the same treatment: constructing
:class:`repro.streaming.qr.StreamingQR` or
:class:`repro.streaming.ingest.ChunkBuffer` anywhere outside
``repro.streaming`` is a violation — chunk geometry rides on
``ExecutionPolicy(path="streaming", chunk_rows=...)`` and the bounded
in-flight window plus the deterministic memory accounting live in the
streaming package, so a privately built engine would produce rows no
soak gate ever accounts for.  External code calls ``stream_qr`` /
``stream_chunks`` or the policy-routed entry points.

The TSQR tree walk has one owner too: importing
:func:`repro.core.tree.batch_level` (the same-signature batching of a
tree level) or :func:`repro.smallblas.wy._factor_slices` (the per-slice
QR kernel), as ``from ... import name`` or as a module attribute
(``wy._factor_slices``), anywhere outside :mod:`repro.core.tsqr` and
``repro.smallblas`` is a violation.  TSQR's panel engine
(``panel_schedule`` / ``factor_panel`` / ``apply_wy_plan``) is the one
driver that walks the tree; a second copy of the walk would drift from
it (the serving coalescer's copy once lost bit identity that way).

The tree merge has one form, too: importing the from-scratch NumPy
:func:`repro.core.householder.geqr2` / ``orm2r`` or
:func:`repro.core.structured.structured_stack_qr` anywhere under
``src/repro/`` outside ``repro.core`` and ``repro.kernels`` is a
violation.  A merge of stacked Rs anywhere else (the sharded fan-in, the
streaming fold) goes through :func:`repro.core.tsqr.merge_rs` and keeps
TSQR's compact-WY entry; with a private ``geqr2`` merge each such
factor grew its own Q walk and applied nothing.  The benchmarks, which
time those kernels, are not in scope.  This rule is scoped by file too.

The application's QR goes through a plan: importing ``tsqr`` or
``tsqr_qr`` from :mod:`repro.core.tsqr` (or through the ``repro.core`` /
``repro`` re-exports), or calling ``tsqr_qr`` as a module attribute,
anywhere under ``src/repro/rpca/`` is a violation.  The Robust-PCA SVT
factors through :func:`repro.runtime.plan.plan_qr`, which reuses one plan
per solve and forms Q in the solver's own buffer; a one-shot TSQR call
would bypass the engine table and allocate Q afresh every iteration.

The library starts one kind of thread: the serving request worker.
Constructing a ``ThreadPoolExecutor``, a ``ProcessPoolExecutor`` or a
``threading.Thread`` (also as a bare ``Thread(...)``) anywhere under
``src/repro/`` outside ``repro.serving`` is a violation.  On a 2-core
host the look-ahead driver's thread pool was no faster than one thread
at any shape measured, and 1.4-2.1x slower on wide ones
(``benchmarks/results/workers_grid.txt``): the host's parallelism is
OpenBLAS's, inside each kernel call.  This rule is scoped
by file, so :func:`scan_file` takes the file's repo-relative path.

AST-based, not regex: only a real comparison node is flagged, so a path
name inside a string, a docstring or a ``policy=ExecutionPolicy(path=...)``
construction never is.

Scanned: ``src/repro``, ``benchmarks/``, ``examples/``.  Tests are
exempt — they compare paths to pin behaviour.

Exit status 1 lists every violation as ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The one module allowed to compare a path name with a literal.
TABLE_MODULE = "src/repro/runtime/policy.py"
PATH_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)

# Classes whose *construction* is reserved to repro.runtime: the
# CholeskyQR2 accept/reject/fallback decisions live there and nowhere
# else.  Both ``CholQRGuard(...)`` and ``CholQRGuard.for_policy(...)``
# count.
GUARD_CONSTRUCTORS = {"CholQRGuard"}

# Classes whose construction is reserved to repro.serving: queue depth,
# overflow disposition and the coalescing window are *serving policy*.
# Code wanting different trade-offs configures a QRServer; a privately
# constructed queue would bypass admission control and the obs counters.
QUEUE_CONSTRUCTORS = {"CoalescingQueue"}

# Classes whose construction is reserved to repro.distributed: the
# communicator's per-level counters are what the critical-path and
# interconnect accounting is computed from, so every rank-to-rank
# message must flow through the one communicator the sharded runner
# builds.  Sharded execution is requested via ExecutionPolicy.
COMM_CONSTRUCTORS = {"FakeComm"}

# Classes whose construction is reserved to repro.graph and the
# registered producers: graph shape is a CI-fingerprinted artifact, so
# layers are emitted only by code the PRODUCERS registry names.
GRAPH_CONSTRUCTORS = {"TaskGraph", "Layer"}

# Classes whose construction is reserved to repro.streaming: chunk
# geometry and the bounded in-flight window are *streaming policy*
# (ExecutionPolicy.chunk_rows), and a privately built engine or buffer
# would bypass the per-chunk obs spans and the deterministic memory
# accounting the soak gate pins.  External code streams via
# repro.streaming.stream_qr / stream_chunks or
# ExecutionPolicy(path="streaming", chunk_rows=...).
STREAM_CONSTRUCTORS = {"StreamingQR", "ChunkBuffer"}

# Names whose import is reserved to TSQR's panel engine and the slice
# kernels it drives: walking the reduction tree (batching a level, factoring
# its slices) anywhere else is a second tree driver.
TREE_WALK_NAMES = {"batch_level", "_factor_slices"}

# The from-scratch merge kernels, fenced out of the library outside
# repro.core and repro.kernels: a tree merge elsewhere is merge_rs.
MERGE_KERNEL_NAMES = {"geqr2", "orm2r", "structured_stack_qr"}

# Each fenced import name and the finding it is.
FENCED_NAMES = {name: "tree walk" for name in TREE_WALK_NAMES}
FENCED_NAMES.update({name: "merge kernel" for name in MERGE_KERNEL_NAMES})

# TSQR's one-shot entry points, fenced out of the application: its QR
# comes from a plan (plan_qr).  Matched in imports from repro.core.tsqr
# and the packages that re-export it; ``tsqr_qr`` also as an attribute.
APP_QR_NAMES = {"tsqr", "tsqr_qr"}
APP_QR_SOURCES = {"tsqr", "core", "repro"}  # last module component, any level

# Thread and process constructors, fenced out of the library: the serving
# request worker is the only thread it starts.
THREAD_CONSTRUCTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}

SCAN_ROOTS = ("src/repro", "benchmarks", "examples")
# Per-rule exemption: only repro.runtime may construct the guard.
GUARD_EXEMPT = ("src/repro/runtime/",)
# Per-rule exemption: only the serving package may construct the queue.
QUEUE_EXEMPT = ("src/repro/serving/",)
# Per-rule exemption: only the distributed package may construct the comm.
COMM_EXEMPT = ("src/repro/distributed/",)
# Per-rule exemption: repro.graph plus the producer modules registered in
# repro.graph.highlevel.PRODUCERS (kept in sync by
# tests/runtime/test_layering_lint.py::test_graph_exemptions_cover_producers).
GRAPH_EXEMPT = (
    "src/repro/graph/",
    "src/repro/distributed/sharded.py",
    "src/repro/streaming/graphs.py",
)
# Per-rule exemption: only the streaming package may construct the
# engine and the chunk buffer.
STREAM_EXEMPT = ("src/repro/streaming/",)
# Per-rule exemption: the panel engine and the slice kernels.
TREE_WALK_EXEMPT = ("src/repro/core/tsqr.py", "src/repro/smallblas/")
# Per-rule scope (the opposite of an exemption): the application package.
APP_QR_SCOPE = ("src/repro/rpca/",)
# Per-rule scope and exemption: the library, except the serving package.
THREAD_SCOPE = "src/repro/"
THREAD_EXEMPT = "src/repro/serving/"
# Per-rule scope and exemption: the library, except the numerics that
# own the merge kernels.
MERGE_KERNEL_SCOPE = "src/repro/"
MERGE_KERNEL_EXEMPT = ("src/repro/core/", "src/repro/kernels/")


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def scan_file(path: Path, rel: str | None = None) -> list[tuple[int, str, str]]:
    """Findings of one file; ``rel`` is its repo-relative path, which
    decides whether the thread rule applies (``None``: it does not)."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:  # a broken file is its own finding
        return [(exc.lineno or 0, "<syntax>", str(exc))]
    threads_fenced = (
        rel is not None and rel.startswith(THREAD_SCOPE) and not rel.startswith(THREAD_EXEMPT)
    )
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            if _compares_path_with_literal(node):
                hits.append((node.lineno, "path", "path comparison"))
            continue
        if isinstance(node, ast.ImportFrom):
            hits.extend(
                (node.lineno, alias.name, FENCED_NAMES[alias.name])
                for alias in node.names
                if alias.name in FENCED_NAMES
            )
            if (node.module or "repro").rsplit(".", 1)[-1] in APP_QR_SOURCES:
                hits.extend(
                    (node.lineno, alias.name, "application qr")
                    for alias in node.names
                    if alias.name in APP_QR_NAMES
                )
            continue
        if isinstance(node, ast.Attribute) and node.attr in FENCED_NAMES:
            hits.append((node.lineno, node.attr, FENCED_NAMES[node.attr]))
            continue
        if isinstance(node, ast.Attribute) and node.attr == "tsqr_qr":
            hits.append((node.lineno, node.attr, "application qr"))
            continue
        if not isinstance(node, ast.Call):
            continue
        name = _callee_name(node)
        if _is_guard_construction(node):
            hits.append(
                (node.lineno, name or "CholQRGuard", "guard construction")
            )
        elif name in QUEUE_CONSTRUCTORS:
            hits.append((node.lineno, name, "queue construction"))
        elif name in COMM_CONSTRUCTORS:
            hits.append((node.lineno, name, "comm construction"))
        elif name in GRAPH_CONSTRUCTORS:
            hits.append((node.lineno, name, "graph construction"))
        elif name in STREAM_CONSTRUCTORS:
            hits.append((node.lineno, name, "stream construction"))
        elif name in THREAD_CONSTRUCTORS and threads_fenced:
            hits.append((node.lineno, name, "thread construction"))
    return sorted(hits)


def _is_path_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "path"


def _is_str_literal(node: ast.AST) -> bool:
    """A string constant, or a tuple/list/set of string constants."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_str_literal(e) for e in node.elts)
    return False


def _compares_path_with_literal(node: ast.Compare) -> bool:
    """``x.path == "seed"``, ``"seed" != x.path``, ``x.path in ("a", "b")``..."""
    operands = [node.left, *node.comparators]
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if not isinstance(op, PATH_OPS):
            continue
        if (_is_path_attr(left) and _is_str_literal(right)) or (
            _is_path_attr(right) and _is_str_literal(left)
        ):
            return True
    return False


def _is_guard_construction(call: ast.Call) -> bool:
    """``CholQRGuard(...)`` or ``CholQRGuard.for_policy(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in GUARD_CONSTRUCTORS
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id in GUARD_CONSTRUCTORS
    return False


def main() -> int:
    violations = []
    for root in SCAN_ROOTS:
        base = REPO / root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            for lineno, name, kwargs in scan_file(path, rel):
                if kwargs == "path comparison":
                    if rel == TABLE_MODULE:
                        continue  # the engine table owns the path names
                    violations.append(
                        f"{rel}:{lineno}: .path compared with a string "
                        f"literal — read the engine table instead "
                        f"(policy.engine / policy.spec / policy.uses_*)"
                    )
                elif kwargs == "guard construction":
                    if any(rel.startswith(pref) for pref in GUARD_EXEMPT):
                        continue  # repro.runtime owns the guard
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — CholQRGuard constructed "
                        f"outside repro.runtime"
                    )
                elif kwargs == "queue construction":
                    if any(rel.startswith(pref) for pref in QUEUE_EXEMPT):
                        continue  # the serving package owns the queue
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — coalescing queue "
                        f"constructed outside repro.serving (configure a "
                        f"QRServer instead)"
                    )
                elif kwargs == "comm construction":
                    if any(rel.startswith(pref) for pref in COMM_EXEMPT):
                        continue  # the distributed package owns the comm
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — communicator "
                        f"constructed outside repro.distributed (use "
                        f"ExecutionPolicy(path='sharded', shards=P) instead)"
                    )
                elif kwargs == "graph construction":
                    if any(rel.startswith(pref) for pref in GRAPH_EXEMPT):
                        continue  # repro.graph and its producers own layers
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — task-graph layers "
                        f"constructed outside repro.graph / registered "
                        f"producers (emit via repro.graph.highlevel.PRODUCERS)"
                    )
                elif kwargs == "stream construction":
                    if any(rel.startswith(pref) for pref in STREAM_EXEMPT):
                        continue  # the streaming package owns the engine
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — streaming engine/"
                        f"chunk buffer constructed outside repro.streaming "
                        f"(use stream_qr / stream_chunks, or "
                        f"ExecutionPolicy(path='streaming', chunk_rows=...))"
                    )
                elif kwargs == "tree walk":
                    if any(rel.startswith(pref) for pref in TREE_WALK_EXEMPT):
                        continue  # the panel engine and its slice kernels
                    violations.append(
                        f"{rel}:{lineno}: {name} — the TSQR tree walk outside "
                        f"repro.core.tsqr (factor and apply panels through "
                        f"panel_schedule / factor_panel / apply_wy_plan)"
                    )
                elif kwargs == "merge kernel":
                    if not rel.startswith(MERGE_KERNEL_SCOPE) or rel.startswith(
                        MERGE_KERNEL_EXEMPT
                    ):
                        continue  # the numerics and everything outside the library
                    violations.append(
                        f"{rel}:{lineno}: {name} — a from-scratch merge kernel "
                        f"outside repro.core (merge stacked Rs with "
                        f"repro.core.tsqr.merge_rs)"
                    )
                elif kwargs == "thread construction":
                    violations.append(
                        f"{rel}:{lineno}: {name}(...) — a thread started outside "
                        f"repro.serving (the library runs on one thread; its "
                        f"parallelism is the BLAS's)"
                    )
                elif kwargs == "application qr":
                    if not rel.startswith(APP_QR_SCOPE):
                        continue  # only the application is fenced
                    violations.append(
                        f"{rel}:{lineno}: {name} — a one-shot TSQR in the "
                        f"application (get the QR from a plan: "
                        f"repro.runtime.plan.plan_qr)"
                    )
                else:  # a file that does not parse
                    violations.append(f"{rel}:{lineno}: {kwargs}")
    if violations:
        print("layering lint: layering violations:")
        for v in violations:
            print(f"  {v}")
        print(
            f"\n{len(violations)} violation(s) (see docs/architecture.md, "
            "'Execution policy & plans')."
        )
        return 1
    print(
        "layering lint: clean (path names read only in the engine table, "
        "the tree walk only in repro.core.tsqr, merges only through its "
        "merge_rs, the application's QR only through plan_qr, threads only "
        "in repro.serving)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
