"""The layering lint: clean on the repo, and able to detect a violation.

A lint that never fires is indistinguishable from no lint; inject a
synthetic violation and make sure it is flagged at the right line.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
LINT = REPO / "tools" / "lint_layering.py"


def test_repo_is_clean():
    proc = subprocess.run(
        [sys.executable, str(LINT)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


class TestScanner:
    def _scan(self, source: str, tmp_path):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        f = tmp_path / "mod.py"
        f.write_text(source)
        return lint_layering.scan_file(f)

    @pytest.mark.parametrize(
        "comparison",
        [
            "policy.path == 'seed'",
            "policy.path != 'batched'",
            "plan.policy.path in ('cholqr2', 'auto')",
            "self.path not in ['sharded']",
            "'lookahead' == p.path",
        ],
        ids=["eq", "ne", "in", "not-in", "reversed"],
    )
    def test_path_literal_comparison_is_flagged(self, tmp_path, comparison):
        hits = self._scan(
            "import repro\n"
            f"if {comparison}:\n"
            "    pass\n",
            tmp_path,
        )
        assert hits == [(2, "path", "path comparison")]

    def test_path_none_and_file_path_checks_pass(self, tmp_path):
        hits = self._scan(
            "ok = x.path is None or x.path is not None\n"
            "other = policy.path == name\n"
            "if self.path is not None and self.path.exists():\n"
            "    data = self.path.read_text()\n",
            tmp_path,
        )
        assert hits == []

    def test_tuning_cache_file_paths_pass(self):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        assert lint_layering.scan_file(REPO / "src" / "repro" / "tuning" / "cache.py") == []

    def test_ignores_unrelated_workers_kwarg(self, tmp_path):
        hits = self._scan(
            "pool = ThreadPoolExecutor(workers=4)\n"
            "other_function(A, batched=False)\n",
            tmp_path,
        )
        assert hits == []

    def test_ignores_policy_kwarg(self, tmp_path):
        hits = self._scan(
            "caqr_qr(A, policy=ExecutionPolicy(path='seed'))\n", tmp_path
        )
        assert hits == []

    def test_guard_construction_is_flagged(self, tmp_path):
        hits = self._scan(
            "from repro.runtime.cholqr import CholQRGuard\n"
            "guard = CholQRGuard(condition_limit=10.0)\n",
            tmp_path,
        )
        assert hits == [(2, "CholQRGuard", "guard construction")]

    def test_guard_classmethod_construction_is_flagged(self, tmp_path):
        hits = self._scan(
            "g = CholQRGuard.for_policy(policy, dtype)\n", tmp_path
        )
        assert hits == [(1, "for_policy", "guard construction")]

    def test_condition_limit_on_policy_is_sanctioned(self, tmp_path):
        # The policy object IS the runtime construct — carrying the
        # threshold there is the approved route.
        hits = self._scan(
            "caqr_qr(A, policy=ExecutionPolicy(path='auto', condition_limit=100.0))\n",
            tmp_path,
        )
        assert hits == []

    def test_queue_construction_is_flagged(self, tmp_path):
        hits = self._scan(
            "from repro.serving import CoalescingQueue\n"
            "q = CoalescingQueue(max_depth=4, overflow='shed')\n",
            tmp_path,
        )
        assert hits == [(2, "CoalescingQueue", "queue construction")]

    def test_queue_attribute_construction_is_flagged(self, tmp_path):
        hits = self._scan(
            "q = repro.serving.coalesce.CoalescingQueue()\n", tmp_path
        )
        assert hits == [(1, "CoalescingQueue", "queue construction")]

    def test_qrserver_construction_is_sanctioned(self, tmp_path):
        # The server is the public surface; only the raw queue is fenced.
        hits = self._scan(
            "from repro.serving import QRServer\n"
            "srv = QRServer(max_depth=4, overflow='shed')\n",
            tmp_path,
        )
        assert hits == []


class TestPathRuleEndToEnd:
    """A path-literal comparison is flagged anywhere but the engine table."""

    def _run_main(self, tmp_path, monkeypatch, capsys):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_injected_path_comparison_is_caught(self, tmp_path, monkeypatch, capsys):
        runtime = tmp_path / "src" / "repro" / "runtime"
        runtime.mkdir(parents=True)
        source = "def f(policy):\n    return policy.path in ('seed', 'batched')\n"
        (runtime / "policy.py").write_text(source)
        (runtime / "plan.py").write_text(source)
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        assert "src/repro/runtime/plan.py:2" in out
        assert "policy.py" not in out


# The keywords each former entry point took before the policy API; the
# signatures now refuse them, which is what the lint's old keyword rule
# used to police.
REMOVED_KEYWORDS = {
    "caqr": ("panel_width", "block_rows", "tree_shape", "structured", "batched",
             "lookahead", "workers", "nonfinite"),
    "caqr_qr": ("panel_width", "block_rows", "tree_shape", "structured", "batched",
                "lookahead", "workers", "nonfinite"),
    "tsqr": ("block_rows", "tree_shape", "structured", "batched", "nonfinite"),
    "tsqr_qr": ("block_rows", "tree_shape", "structured", "batched", "nonfinite"),
    "caqr_gpu_factor": ("batched", "lookahead", "workers", "nonfinite"),
    "randomized_range_finder": ("block_rows", "batched", "workers", "nonfinite"),
    "randomized_svd": ("batched", "workers", "nonfinite"),
    "QRDispatcher": ("batched", "lookahead", "workers", "nonfinite"),
    "AdaptiveSVT": ("batched", "workers", "nonfinite"),
    # The look-ahead driver's thread count and its barrier switch, and
    # the serving opt-out (path="lookahead" is the non-coalescable name).
    "ExecutionPolicy": ("workers", "lookahead_edge", "coalesce"),
}
LEGACY_VALUES = {
    "panel_width": 4, "block_rows": 8, "tree_shape": "binary", "structured": True,
    "batched": False, "lookahead": True, "workers": 2, "nonfinite": "propagate",
    "lookahead_edge": False, "coalesce": False,
}


def _entry_point(name):
    import numpy as np

    from repro.caqr_gpu import caqr_gpu_factor
    from repro.core.caqr import caqr, caqr_qr
    from repro.core.randomized_svd import randomized_range_finder, randomized_svd
    from repro.core.tsqr import tsqr, tsqr_qr
    from repro.dispatch import QRDispatcher
    from repro.rpca.adaptive import AdaptiveSVT
    from repro.runtime import ExecutionPolicy

    A = np.random.default_rng(0).standard_normal((64, 8))
    return {
        "caqr": lambda **kw: caqr(A, **kw),
        "caqr_qr": lambda **kw: caqr_qr(A, **kw),
        "tsqr": lambda **kw: tsqr(A, **kw),
        "tsqr_qr": lambda **kw: tsqr_qr(A, **kw),
        "caqr_gpu_factor": lambda **kw: caqr_gpu_factor(A, **kw),
        "randomized_range_finder": lambda **kw: randomized_range_finder(A, 2, **kw),
        "randomized_svd": lambda **kw: randomized_svd(A, 2, **kw),
        "QRDispatcher": lambda **kw: QRDispatcher(**kw),
        "AdaptiveSVT": lambda **kw: AdaptiveSVT(**kw),
        "ExecutionPolicy": lambda **kw: ExecutionPolicy(path="lookahead", **kw),
    }[name]


@pytest.mark.parametrize(
    "entry,keyword",
    [(entry, kw) for entry, kws in REMOVED_KEYWORDS.items() for kw in kws],
)
def test_removed_keyword_raises_type_error(entry, keyword):
    call = _entry_point(entry)
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: LEGACY_VALUES[keyword]})


def test_removed_entry_points_are_gone():
    import repro.graph
    import repro.graph.dag
    import repro.graph.executor
    import repro.runtime.policy

    assert not hasattr(repro.graph.executor, "caqr_lookahead")
    assert not hasattr(repro.graph, "build_caqr_graph")
    assert not hasattr(repro.graph.dag, "build_caqr_graph")
    for name in ("resolve_policy", "resolve_executor_policy", "UNSET"):
        assert not hasattr(repro.runtime.policy, name)
    assert not hasattr(repro.runtime.policy.ExecutionPolicy, "from_legacy")


def test_bound_graph_engines_are_gone():
    # One structural task graph and one way to run each pipeline: the
    # positional launch graph, the bound engines and their runner are
    # deleted, and their options are refused.
    import numpy as np

    import repro.core.randomized_svd
    import repro.core.ts_svd
    import repro.gpusim.concurrent
    import repro.graph
    import repro.graph.dag
    import repro.graph.executor
    import repro.streaming
    from repro.graph.executor import build_lookahead_schedule, emit_lookahead_layers
    from repro.graph.highlevel import PRODUCERS, Task, TaskGraph
    from repro.rpca.ialm import rpca_ialm
    from repro.runtime import ExecutionPolicy

    for name in ("LaunchGraph", "LaunchNode", "caqr_launch_graph", "launch_graph_from_tasks"):
        assert not hasattr(repro.graph, name) and not hasattr(repro.graph.dag, name)
    assert not hasattr(repro.graph.executor, "run_task_graph")
    assert not hasattr(repro.gpusim.concurrent, "list_schedule")
    for name in ("randomized_svd_graph", "emit_rsvd_layers"):
        assert not hasattr(repro.core.randomized_svd, name)
    assert not hasattr(repro.streaming, "run_streaming_graph")
    assert not hasattr(repro.core.ts_svd, "QR_ENGINES")
    assert "fn" not in Task.__dataclass_fields__
    with pytest.raises(TypeError, match="fn"):
        TaskGraph().add_task("work", "k", fn=lambda: None)
    assert "rsvd" not in PRODUCERS and "rpca_ialm" not in PRODUCERS
    with pytest.raises(ImportError):
        import repro.rpca.graphs  # noqa: F401
    with pytest.raises(TypeError, match="engine"):
        rpca_ialm(np.eye(4), engine="graph")
    sched = build_lookahead_schedule(64, 8, ExecutionPolicy(path="lookahead"))
    with pytest.raises(TypeError, match="bind"):
        emit_lookahead_layers(sched, bind=[])


def test_look_ahead_threads_are_gone():
    # The look-ahead driver runs on one thread: its pool, column tiling,
    # threaded Q formation and worker count are deleted.
    import repro.graph
    import repro.graph.executor
    from repro.core.caqr import CAQRFactors
    from repro.graph.executor import LookaheadSchedule
    from repro.runtime import ExecutionPolicy

    assert not hasattr(repro.graph, "form_q_columns")
    for name in ("form_q_columns", "_shared_pool", "_run_threaded", "_execute",
                 "_col_tiles", "_MIN_TILE"):
        assert not hasattr(repro.graph.executor, name), name
    assert not hasattr(LookaheadSchedule, "compiled_order")
    assert "workers" not in CAQRFactors.__dataclass_fields__
    assert not hasattr(ExecutionPolicy, "effective_workers")
    assert len(ExecutionPolicy.__dataclass_fields__) == 13


def test_serial_engine_is_gone():
    # One CAQR driver and one TSQR strategy: the serial panel loop, the
    # per-node reference strategy and the seed paths are deleted (the
    # per-node oracle lives in tests/reference_qr.py).
    import repro.core.caqr
    import repro.core.tsqr
    import repro.runtime.policy
    from repro.core.tsqr import TSQRFactors
    from repro.runtime import ExecutionPolicy
    from repro.runtime.policy import ENGINES, PATHS, PathSpec

    assert not hasattr(repro.core.caqr, "_caqr_serial")
    for name in ("_tsqr_reference", "_level0_ref", "_apply_level0", "_gather", "_scatter"):
        assert not hasattr(repro.core.tsqr, name) and not hasattr(TSQRFactors, name), name
    assert not hasattr(TSQRFactors, "batched")
    assert "batched" not in TSQRFactors.__init__.__code__.co_varnames
    assert not hasattr(ExecutionPolicy, "uses_batched")
    assert "batched" not in PathSpec.__dataclass_fields__
    for name in ("SERIAL", "_Serial"):
        assert not hasattr(repro.runtime.policy, name)
    assert len(PATHS) == 8 and len({spec.engine for spec in PATHS.values()}) == 4
    assert len(ENGINES) == 4
    for name in ("seed", "seed_structured"):
        with pytest.raises(ValueError, match="unknown execution path"):
            ExecutionPolicy(path=name)
    assert len(ExecutionPolicy.__dataclass_fields__) == 13


def test_per_node_view_is_gone():
    # One TSQR factor representation: the apply plan.  The per-node
    # records live in the test oracle (tests/reference_qr.py), and
    # archives store the plan itself.
    import inspect

    import numpy as np

    import repro.core.tsqr
    import repro.smallblas.wy
    from repro.core.tsqr import TSQRFactors, factor_panel, panel_schedule

    for name in (
        "_LevelZeroFactor", "_TreeFactor", "_node_factors", "_plan_from_factors", "_stacked_wy",
    ):
        assert not hasattr(repro.core.tsqr, name), name
    assert not hasattr(TSQRFactors, "blocks") and not hasattr(TSQRFactors, "tree_factors")
    params = list(inspect.signature(TSQRFactors).parameters)
    assert params == ["m", "n", "tree", "R", "plan"]
    for name in ("packed_vr", "scratch_copy"):
        assert not hasattr(repro.smallblas.wy, name), name
    out = factor_panel(panel_schedule(130, 4, 64, "quad"), np.ones((1, 130, 4)))
    assert len(out) == 2


def test_second_merge_forms_are_gone():
    # One tree-merge representation: TSQR's compact-WY entry.  The
    # structured entry kind, the sharded and streaming merge nodes, their
    # Q walks and the streaming merge counters are deleted, and the
    # archive format moved to 3.
    import numpy as np

    import repro.distributed.sharded
    import repro.io
    import repro.streaming.qr
    from repro.core.caqr import MergedCAQRFactors
    from repro.core.tsqr import tsqr
    from repro.runtime import ExecutionPolicy
    from repro.distributed.sharded import ShardedCAQRFactors
    from repro.streaming import StreamingQR
    from repro.streaming.qr import StreamingCAQRFactors

    assert not hasattr(repro.distributed.sharded, "_ShardTreeNode")
    for name in ("_DenseMergeNode", "_StructuredMergeNode", "_merge_triangles", "_ChunkQR"):
        assert not hasattr(repro.streaming.qr, name), name
    for name in ("_put_structured", "_get_structured"):
        assert not hasattr(repro.io, name), name
    assert repro.io._FORMAT_VERSION == 3
    sq = StreamingQR(n_cols=4)
    assert not hasattr(sq, "structured_merges") and not hasattr(sq, "dense_merges")
    for cls in (ShardedCAQRFactors, StreamingCAQRFactors):
        assert issubclass(cls, MergedCAQRFactors)
        assert cls.form_q is MergedCAQRFactors.form_q
        assert cls.apply_qt is MergedCAQRFactors.apply_qt
    for name in ("geqr2", "orm2r", "structured_stack_qr"):
        assert not hasattr(repro.distributed.sharded, name), name
        assert not hasattr(repro.streaming.qr, name), name
    # A structured tree keeps the dense trees' entries: (idx, V, T).
    A = np.random.default_rng(0).standard_normal((300, 8))
    plan = tsqr(A, policy=ExecutionPolicy(path="structured", block_rows=32)).plan
    entries = [e for level in plan.levels for e in level]
    assert entries and all(
        len(e) == 3 and all(isinstance(a, np.ndarray) for a in e) for e in entries
    )


class TestMergeKernelRule:
    """The merge-kernel fence: the from-scratch ``geqr2`` / ``orm2r`` and
    ``structured_stack_qr`` are imported in ``repro.core`` and
    ``repro.kernels`` only; a merge elsewhere in the library is
    ``merge_rs``."""

    def _lint(self):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        return lint_layering

    def test_scanner_flags_the_kernels(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.core.householder import geqr2, house, orm2r\n"
            "from repro.core.structured import structured_stack_qr\n"
            "from repro.core.tsqr import merge_rs\n"
            "from repro.smallblas.wy import geqr2_blocked\n"
        )
        assert self._lint().scan_file(f) == [
            (1, "geqr2", "merge kernel"),
            (1, "orm2r", "merge kernel"),
            (2, "structured_stack_qr", "merge kernel"),
        ]

    def test_injected_merge_kernels_are_caught(self, tmp_path, monkeypatch, capsys):
        lint_layering = self._lint()
        files = {
            "src/repro/distributed/sharded.py": "from repro.core.householder import geqr2, orm2r\n",
            "src/repro/streaming/qr.py": (
                "import numpy as np\n"
                "from repro.core.structured import structured_stack_qr\n"
                "import repro.core.householder as hh\n"
                "VR, tau = hh.geqr2(S)\n"
            ),
            "src/repro/core/tsqr.py": "from .structured import structured_stack_qr\n",
            "src/repro/kernels/factor.py": "from repro.core.householder import geqr2\n",
            "benchmarks/bench_kernel.py": "from repro.core.householder import geqr2, orm2r\n",
        }
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        assert lint_layering.main() == 1
        out = capsys.readouterr().out
        assert "src/repro/distributed/sharded.py:1: geqr2" in out
        assert "src/repro/distributed/sharded.py:1: orm2r" in out
        assert "src/repro/streaming/qr.py:2: structured_stack_qr" in out
        assert "src/repro/streaming/qr.py:4: geqr2" in out
        assert "merge stacked Rs with repro.core.tsqr.merge_rs" in out
        assert "core/tsqr.py" not in out and "kernels/factor.py" not in out
        assert "bench_kernel.py" not in out
        assert "4 violation(s)" in out


class TestThreadRuleEndToEnd:
    """The thread fence: a thread or process pool started under
    ``src/repro/`` outside ``repro.serving`` is flagged; the serving
    worker, and threads outside the library, are not."""

    def _run_main(self, tmp_path, monkeypatch, capsys):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_scanner_flags_only_library_files(self, tmp_path):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        f = tmp_path / "mod.py"
        f.write_text("import threading\nth = threading.Thread(target=print)\n")
        assert lint_layering.scan_file(f, "src/repro/graph/mod.py") == [
            (2, "Thread", "thread construction")
        ]
        assert lint_layering.scan_file(f, "src/repro/serving/mod.py") == []
        assert lint_layering.scan_file(f, "benchmarks/mod.py") == []
        assert lint_layering.scan_file(f) == []

    def test_injected_thread_violations_are_caught(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "graph"
        bad.mkdir(parents=True)
        (bad / "executor.py").write_text(
            "import threading\n"
            "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=2)\n"
            "procs = ProcessPoolExecutor()\n"
            "th = threading.Thread(target=print)\n"
        )
        ok = tmp_path / "src" / "repro" / "serving"
        ok.mkdir(parents=True)
        (ok / "server.py").write_text(
            "import threading\nworker = threading.Thread(target=print)\n"
        )
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench.py").write_text(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=8)\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        for line, name in ((3, "ThreadPoolExecutor"), (4, "ProcessPoolExecutor"), (5, "Thread")):
            assert f"src/repro/graph/executor.py:{line}: {name}(...)" in out
        assert "3 violation(s)" in out
        assert "serving/server.py" not in out and "bench.py" not in out


class TestQueueRuleEndToEnd:
    """Inject a real violation into a synthetic repo tree and run the
    lint's main(): the violation outside ``repro.serving`` must be
    flagged, the identical construction inside it must not."""

    def _run_main(self, tmp_path, monkeypatch, capsys):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_injected_queue_violation_is_caught(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "smallblas"
        bad.mkdir(parents=True)
        (bad / "rogue.py").write_text(
            "from repro.serving.coalesce import CoalescingQueue\n"
            "queue = CoalescingQueue(max_depth=2)\n"
        )
        ok = tmp_path / "src" / "repro" / "serving"
        ok.mkdir(parents=True)
        (ok / "server.py").write_text(
            "from .coalesce import CoalescingQueue\n"
            "queue = CoalescingQueue(max_depth=2)\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        assert "src/repro/smallblas/rogue.py:2" in out
        assert "outside repro.serving" in out
        assert "serving/server.py" not in out

    def test_serving_only_tree_is_clean(self, tmp_path, monkeypatch, capsys):
        ok = tmp_path / "src" / "repro" / "serving"
        ok.mkdir(parents=True)
        (ok / "coalesce.py").write_text(
            "queue = CoalescingQueue(max_depth=2, overflow='reject')\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert "clean" in out


class TestCommRuleEndToEnd:
    """The FakeComm fence: flagged outside ``repro.distributed``, owned
    inside it — same shape as the queue rule above."""

    def _run_main(self, tmp_path, monkeypatch, capsys):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_scanner_flags_comm_construction(self, tmp_path):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.distributed import FakeComm\n"
            "c = FakeComm(size=4)\n"
        )
        assert lint_layering.scan_file(f) == [(2, "FakeComm", "comm construction")]

    def test_injected_comm_violation_is_caught(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "experiments"
        bad.mkdir(parents=True)
        (bad / "rogue.py").write_text(
            "from repro.distributed.comm import FakeComm\n"
            "comm = FakeComm(size=8)\n"
        )
        ok = tmp_path / "src" / "repro" / "distributed"
        ok.mkdir(parents=True)
        (ok / "sharded.py").write_text(
            "from .comm import FakeComm\n"
            "comm = FakeComm(size=8)\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        assert "src/repro/experiments/rogue.py:2" in out
        assert "outside repro.distributed" in out
        assert "ExecutionPolicy(path='sharded'" in out
        assert "distributed/sharded.py" not in out

    def test_distributed_only_tree_is_clean(self, tmp_path, monkeypatch, capsys):
        ok = tmp_path / "src" / "repro" / "distributed"
        ok.mkdir(parents=True)
        (ok / "comm.py").write_text("comm = FakeComm(size=4)\n")
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert "clean" in out


class TestGraphRuleEndToEnd:
    """The TaskGraph/Layer fence: layer emission belongs to ``repro.graph``
    and the modules registered in ``repro.graph.highlevel.PRODUCERS``."""

    def _lint(self):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        return lint_layering

    def _run_main(self, tmp_path, monkeypatch, capsys):
        lint_layering = self._lint()
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_scanner_flags_taskgraph_construction(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.graph.highlevel import TaskGraph\n"
            "tg = TaskGraph(name='rogue')\n"
        )
        assert self._lint().scan_file(f) == [(2, "TaskGraph", "graph construction")]

    def test_scanner_flags_layer_construction(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("layer = repro.graph.highlevel.Layer(name='x')\n")
        assert self._lint().scan_file(f) == [(1, "Layer", "graph construction")]

    def test_injected_graph_violation_is_caught(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "serving"
        bad.mkdir(parents=True)
        (bad / "rogue.py").write_text(
            "from repro.graph.highlevel import TaskGraph\n"
            "tg = TaskGraph(name='private')\n"
        )
        ok = tmp_path / "src" / "repro" / "graph"
        ok.mkdir(parents=True)
        (ok / "dag.py").write_text("tg = TaskGraph(name='caqr')\n")
        producer = tmp_path / "src" / "repro" / "streaming"
        producer.mkdir(parents=True)
        (producer / "graphs.py").write_text("tg = TaskGraph(name='streaming')\n")
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        assert "src/repro/serving/rogue.py:2" in out
        assert "outside repro.graph" in out
        assert "PRODUCERS" in out
        assert "graph/dag.py" not in out
        assert "streaming/graphs.py" not in out

    def test_graph_only_tree_is_clean(self, tmp_path, monkeypatch, capsys):
        ok = tmp_path / "src" / "repro" / "graph"
        ok.mkdir(parents=True)
        (ok / "highlevel.py").write_text(
            "tg = TaskGraph(name='x')\n"
            "layer = Layer(name='panel')\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert "clean" in out

    def test_graph_exemptions_cover_producers(self):
        # The lint's hardcoded exemption list must stay in sync with the
        # producer registry: every registered emitter's module must be
        # allowed to construct layers.
        from repro.graph.highlevel import PRODUCERS

        lint_layering = self._lint()
        for target in PRODUCERS.values():
            module = target.split(":", 1)[0]
            rel = "src/" + module.replace(".", "/") + ".py"
            assert any(
                rel.startswith(pref) for pref in lint_layering.GRAPH_EXEMPT
            ), f"producer module {module} not exempt from the graph fence"


class TestStreamRule:
    """The streaming fence: StreamingQR / ChunkBuffer construction is
    reserved to ``repro.streaming`` — chunk geometry rides on
    ``ExecutionPolicy(path='streaming', chunk_rows=...)`` and a
    privately built engine would bypass the bounded in-flight window and
    the tracked-memory accounting the soak gate pins."""

    def _lint(self):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        return lint_layering

    def _run_main(self, tmp_path, monkeypatch, capsys):
        lint_layering = self._lint()
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_scanner_flags_engine_construction(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.streaming import StreamingQR\n"
            "sq = StreamingQR(n_cols=8)\n"
        )
        assert self._lint().scan_file(f) == [
            (2, "StreamingQR", "stream construction")
        ]

    def test_scanner_flags_buffer_construction(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("buf = repro.streaming.ingest.ChunkBuffer(chunk_rows=64)\n")
        assert self._lint().scan_file(f) == [
            (1, "ChunkBuffer", "stream construction")
        ]

    def test_stream_qr_entry_point_is_sanctioned(self, tmp_path):
        # The generator-consuming entry point is the public surface;
        # only the raw engine and buffer are fenced.
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.streaming import stream_qr, stream_chunks\n"
            "sq = stream_qr(blocks, policy=policy)\n"
            "for c in stream_chunks(blocks, 64):\n"
            "    pass\n"
        )
        assert self._lint().scan_file(f) == []

    def test_injected_stream_violation_is_caught(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "rpca"
        bad.mkdir(parents=True)
        (bad / "rogue.py").write_text(
            "from repro.streaming.qr import StreamingQR\n"
            "sq = StreamingQR(n_cols=4)\n"
        )
        ok = tmp_path / "src" / "repro" / "streaming"
        ok.mkdir(parents=True)
        (ok / "background.py").write_text(
            "buf = ChunkBuffer(chunk_rows=25)\n"
            "sq = StreamingQR(n_cols=4)\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        assert "src/repro/rpca/rogue.py:2" in out
        assert "outside repro.streaming" in out
        assert "stream_qr / stream_chunks" in out
        assert "streaming/background.py" not in out

    def test_streaming_only_tree_is_clean(self, tmp_path, monkeypatch, capsys):
        ok = tmp_path / "src" / "repro" / "streaming"
        ok.mkdir(parents=True)
        (ok / "qr.py").write_text(
            "sq = StreamingQR(n_cols=4)\n"
            "buf = ChunkBuffer(chunk_rows=8, max_in_flight=2)\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert "clean" in out


class TestTreeWalkRule:
    """The tree-walk fence: ``batch_level`` and ``_factor_slices`` are
    imported by TSQR's panel engine and the slice kernels only, so no
    second TSQR tree driver can grow back elsewhere."""

    def _lint(self):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        return lint_layering

    def _run_main(self, tmp_path, monkeypatch, capsys):
        lint_layering = self._lint()
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        rc = lint_layering.main()
        return rc, capsys.readouterr().out

    def test_scanner_flags_both_import_forms(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.core.tree import batch_level, build_tree\n"
            "from repro.smallblas import wy\n"
            "V, T, R, tau = wy._factor_slices(A)\n"
        )
        assert self._lint().scan_file(f) == [
            (1, "batch_level", "tree walk"),
            (3, "_factor_slices", "tree walk"),
        ]

    def test_engine_entry_points_are_sanctioned(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.core.tree import build_tree\n"
            "from repro.core.tsqr import apply_wy_plan, factor_panel, panel_schedule\n"
            "from repro.smallblas.wy import apply_wy, geqr2_blocked\n"
        )
        assert self._lint().scan_file(f) == []

    def test_injected_tree_walk_is_caught(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "serving"
        bad.mkdir(parents=True)
        (bad / "batch.py").write_text(
            "from repro.core.tree import batch_level\n"
            "from repro.smallblas.wy import _factor_slices\n"
        )
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_kernel.py").write_text(
            "import repro.smallblas.wy as wy\n"
            "wy._factor_slices(S)\n"
        )
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "tsqr.py").write_text(
            "from .tree import batch_level\n"
            "from repro.smallblas.wy import _factor_slices\n"
        )
        kernels = tmp_path / "src" / "repro" / "smallblas"
        kernels.mkdir(parents=True)
        (kernels / "wy.py").write_text("V, T, R, tau = _factor_slices(A)\n")
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 1
        assert "src/repro/serving/batch.py:1: batch_level" in out
        assert "src/repro/serving/batch.py:2: _factor_slices" in out
        assert "benchmarks/bench_kernel.py:2: _factor_slices" in out
        assert "outside repro.core.tsqr" in out
        assert "core/tsqr.py" not in out and "smallblas/wy.py" not in out
        assert "3 violation(s)" in out

    def test_engine_only_tree_is_clean(self, tmp_path, monkeypatch, capsys):
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "tsqr.py").write_text(
            "from .tree import TreeSchedule, batch_level, build_tree\n"
            "from repro.smallblas.wy import _factor_slices, apply_wy\n"
        )
        rc, out = self._run_main(tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert "tree walk only in repro.core.tsqr" in out


class TestApplicationQRRule:
    """The application fence: nothing under ``repro.rpca`` imports TSQR's
    one-shot entry points, so the SVT's QR stays on a ``plan_qr`` plan."""

    def _lint(self):
        sys.path.insert(0, str(LINT.parent))
        try:
            import lint_layering
        finally:
            sys.path.pop(0)
        return lint_layering

    def test_scanner_flags_both_import_forms(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from repro.core.tsqr import level0_rows, tsqr, tsqr_qr\n"
            "from repro.runtime.plan import plan_qr\n"
            "import repro.core.tsqr as tsqr_mod\n"
            "Q, R = tsqr_mod.tsqr_qr(X)\n"
        )
        assert self._lint().scan_file(f) == [
            (1, "tsqr", "application qr"),
            (1, "tsqr_qr", "application qr"),
            (4, "tsqr_qr", "application qr"),
        ]

    def test_injected_application_qr_is_caught(self, tmp_path, monkeypatch, capsys):
        lint_layering = self._lint()
        files = {
            "src/repro/rpca/svt.py": "from repro.core.tsqr import tsqr_qr\n",
            "src/repro/rpca/online.py": "import numpy as np\nfrom ..core import tsqr\n",
            "src/repro/core/ts_svd.py": "from .tsqr import tsqr_qr\n",
            "benchmarks/bench_svd.py": "from repro.core.tsqr import tsqr, tsqr_qr\n",
        }
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        monkeypatch.setattr(lint_layering, "REPO", tmp_path)
        assert lint_layering.main() == 1
        out = capsys.readouterr().out
        assert "src/repro/rpca/svt.py:1: tsqr_qr" in out
        assert "src/repro/rpca/online.py:2: tsqr" in out
        assert "get the QR from a plan" in out
        assert "core/ts_svd.py" not in out and "bench_svd.py" not in out
        assert "2 violation(s)" in out
