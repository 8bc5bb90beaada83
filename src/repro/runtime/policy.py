"""Execution policies for the CAQR/TSQR stack.

An :class:`ExecutionPolicy` is the single source of truth for *how* a
factorization runs: which execution path, what panel/tree geometry,
which non-finite policy, and which modeled device/kernel configuration
the cost model should use.  Every entry point takes it as
``policy=``; a direct call such as ``caqr(A, policy=p)`` is
``plan_qr(m, n, A.dtype, p).factor(A)``.

Path names and engines
----------------------
Eight path names select four engines.  Each engine supplies everything a
:class:`~repro.runtime.plan.QRPlan` does with a path — its plan build,
``factor``, ``simulate``, ``task_graph``, the extras ``describe`` prints
— and the policy fields it requires or permits, which
:class:`ExecutionPolicy` validates against.  The per-path flags of
:class:`PathSpec` are the only other facts any module reads off a path
name.  The table, :data:`PATHS`, is the one place path names are read;
each name below is followed by its engine.

``batched`` (lookahead)
    The default: the look-ahead engine's driver
    (:func:`repro.graph.executor.run_lookahead_schedule`), under its
    panel rule (one panel on a tall matrix, 16 columns on a wide one).
    It is the one path the serving coalescer stacks (``coalescable``).
``structured`` (lookahead)
    The same driver with Figure 2(c)'s sparsity-exploiting
    stacked-triangle elimination as the tree-merge kernel, one group at
    a time; its merges are kept as compact-WY factors like the dense
    ones (not coalescable).
``lookahead`` (lookahead)
    The same engine under its own name (not coalescable).
``cholqr2`` (cholqr)
    The BLAS3 fast path: CholeskyQR2 (two Gram/Cholesky/triangular
    passes, ~4mn^2 flops, O(1) kernel launches).  Condition-guarded —
    breaks down (raises) near ``cond(A) ~ 1/sqrt(eps)`` instead of
    silently losing orthogonality.
``cholqr2_mixed`` (cholqr)
    CholeskyQR2 with a float32 first-pass Gram accumulation; the
    reorthogonalization pass runs in float64, restoring full
    orthogonality.  Guarded at the float32 condition limit.
``auto`` (cholqr)
    Adaptive: runs ``cholqr2`` when a cheap condition estimate admits
    it and transparently falls back to the look-ahead engine otherwise
    (including on Cholesky breakdown mid-factorization).  Never
    raises on ill-conditioned input; ``condition_limit`` overrides the
    guard threshold.
``sharded`` (sharded)
    Multi-device parallel CAQR (:mod:`repro.distributed.sharded`): the
    matrix is row-partitioned across ``shards`` simulated ranks, each
    runs the local batched compact-WY machinery, and per-rank R factors
    reduce through a ``fanin``-ary tree of TSQR merges over
    ``FakeComm``, with traffic charged to a calibrated ``interconnect``
    alpha-beta model.
    Requires ``shards=``; ``fanin`` and ``interconnect`` are optional.
``streaming`` (streaming)
    Out-of-core sequential CAQR (:mod:`repro.streaming`): the tall axis
    is cut into ``chunk_rows``-row chunks, each chunk runs the local
    batched compact-WY machinery, and the chunk's R folds into the
    running n x n triangle as one TSQR tree merge — so resident memory
    is bounded by the chunk, not the stream.  Requires ``chunk_rows=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.verify.guards import validate_nonfinite_policy

__all__ = [
    "CHOLQR", "CHOLQR_PATHS", "ENGINES", "LOOKAHEAD", "PATHS", "PATH_NAMES",
    "SHARDED", "STREAMING", "Engine", "ExecutionPolicy", "PathSpec",
]

# The paper's panel width (Section IV's 64 x 16 blocks, sized for the
# C2050 kernels): what an unset ``panel_width`` means on a wide matrix,
# and on every engine except the look-ahead one (``batched``,
# ``structured``, ``lookahead`` and ``auto``'s fallback), which takes one
# panel when tall.
PAPER_PANEL_WIDTH = 16


# -- the engine table ------------------------------------------------------
#
# Every execution-path name is read here and nowhere else
# (tools/lint_layering.py flags a ``.path`` compared with a string literal
# in any other module).  Engines import their numerics inside each
# method, so the table costs nothing at import time.


class Engine:
    """How plans of one family build, run, model and compile.

    ``required`` policy fields must be set for the engine's paths and
    ``permits`` fields may be; every other gated field is refused.
    ``modeled`` says whether ``simulate`` has a timeline to return.  The
    defaults are in-core CAQR's (launch-stream model, one panel spec per
    column panel), which the look-ahead engine runs.
    """

    required: tuple[str, ...] = ()
    permits: tuple[str, ...] = ()
    modeled = True

    def build(self, plan):
        """Shape-dependent state built once per plan: the engine's schedule."""
        return None

    def panel_width(self, policy, m: int, n: int) -> int:
        """The panel width ``policy`` factors an ``m x n`` matrix with.

        An explicit width is used as given; unset means the paper's 16.
        """
        return PAPER_PANEL_WIDTH if policy.panel_width is None else policy.panel_width

    def factor(self, plan, A, q_out=None):
        """Factor validated ``A``; ``q_out`` is the buffer Q is formed in
        next, which the engine may work in while it factors."""
        raise NotImplementedError

    def factors_in_q(self, plan) -> bool:
        """Whether ``factor`` works in Q's buffer, so that an ``execute``
        without ``out`` allocates Q before factoring, not after."""
        return False

    def simulate(self, m, n, policy, cfg, dev, streams=None):
        from repro.caqr_gpu import simulate_caqr

        return simulate_caqr(m, n, cfg, dev, streams=streams)

    def panels(self, plan) -> tuple:
        from repro.runtime.plan import _panel_specs

        return _panel_specs(plan.m, plan.n, plan.policy)

    def scratch_bytes(self, plan) -> int:
        from repro.runtime.plan import _wy_scratch_bytes

        return _wy_scratch_bytes(plan.policy, plan.panels, plan.dtype.itemsize)

    def level0(self, plan) -> tuple[tuple[int, ...], str]:
        """Effective level-0 block heights and what they describe."""
        return tuple(p.block_rows for p in plan.panels), ""

    def detail(self, policy) -> str:
        """The ``describe`` suffix after the path name."""
        return ""


class _Lookahead(Engine):
    def panel_width(self, policy, m, n):
        # Unset on a tall matrix: one full-width panel, which is TSQR of
        # the whole matrix (no trailing update).  On a 2-core Xeon it beat
        # width 16 at every tall shape measured (EXPERIMENTS.md, "The
        # `auto` fallback as one panel"); wide matrices keep 16.
        if policy.panel_width is None and m >= n:
            return max(1, n)
        return super().panel_width(policy, m, n)

    def build(self, plan):
        from repro.graph.executor import build_lookahead_schedule

        return build_lookahead_schedule(plan.m, plan.n, plan.policy)

    def factor(self, plan, A, q_out=None):
        # Looked up at call time: benchmarks wrap this attribute.
        from repro.graph.executor import run_lookahead_schedule

        return run_lookahead_schedule(plan._schedule, A, q_out=q_out)

    def factors_in_q(self, plan):
        # One panel factors its level-0 reflectors in Q's buffer.  With
        # trailing updates the working copy is freed before Q is formed.
        return not plan._schedule.has_updates

    def task_graph(self, plan):
        from repro.graph.executor import emit_lookahead_layers

        return emit_lookahead_layers(plan._schedule)


class _CholQR(Engine):
    permits = ("condition_limit",)

    def panel_width(self, policy, m, n):
        # A fallback path's panels are its look-ahead fallback's.
        if policy.spec.fallback:
            return LOOKAHEAD.panel_width(policy, m, n)
        return super().panel_width(policy, m, n)

    def build(self, plan):
        # A fallback path prebuilds the look-ahead schedule, panel
        # schedules included, so a guarded execute never plans.
        if not plan.policy.spec.fallback or plan.m < 1 or plan.n < 1:
            return None
        from repro.runtime.cholqr import _fallback_schedule

        return _fallback_schedule(plan.m, plan.n, plan.policy)

    def factor(self, plan, A, q_out=None):
        from repro.runtime.cholqr import run_cholqr

        return run_cholqr(
            A, plan.policy, workspace=plan._cholqr_workspace(), schedule=plan._schedule,
            q_out=q_out,
        )

    def factors_in_q(self, plan):
        # The working matrix is Q (on a wide matrix, of the leading
        # square block, and a fallback's working copy would not fit).
        return plan.m >= plan.n

    def simulate(self, m, n, policy, cfg, dev, streams=None):
        # O(1) launches on one stream: ``streams`` has no effect.
        from repro.caqr_gpu import simulate_cholqr2

        spec = policy.spec
        return simulate_cholqr2(m, n, cfg, dev, mixed=spec.mixed, guard=spec.fallback)

    def task_graph(self, plan):
        raise ValueError(
            "task_graph: CholeskyQR2 paths are O(1) launch chains; "
            "there is no task graph to compile"
        )

    def panels(self, plan):
        # A fallback path's Householder panels are its tree fallback's.
        return super().panels(plan) if plan.policy.spec.fallback else ()

    def scratch_bytes(self, plan):
        # The n x n Gram + triangular smalls, plus the float32 Gram cast
        # buffer on the mixed path; a fallback allocates its tree's
        # compact-WY factors instead, so it needs the larger of the two.
        import numpy as np

        k = min(plan.m, plan.n)
        scratch = 3 * k * k * plan.dtype.itemsize
        if plan.policy.spec.mixed and plan.dtype == np.dtype(np.float64):
            scratch += plan.m * k * np.dtype(np.float32).itemsize
        return max(scratch, super().scratch_bytes(plan))

    def level0(self, plan):
        return super().level0(plan)[0], " (tree fallback)"


class _Sharded(Engine):
    required = ("shards",)
    permits = ("fanin", "interconnect")

    def build(self, plan):
        # The row deal and fan-in tree are pure functions of the shape:
        # built once, every execute replays the tree the fingerprint pins.
        from repro.distributed.sharded import build_shard_schedule

        p = plan.policy
        return build_shard_schedule(plan.m, plan.n, p.shards, p.effective_fanin)

    def factor(self, plan, A, q_out=None):
        from repro.distributed.sharded import run_sharded

        return run_sharded(A, plan.policy, schedule=plan._schedule)

    def simulate(self, m, n, policy, cfg, dev, streams=None):
        # Per-device local CAQR + modeled reduction traffic; ``streams``
        # is per-device and does not apply.
        from repro.caqr_gpu import simulate_sharded

        return simulate_sharded(
            m, n, cfg, dev,
            shards=policy.shards,
            fanin=policy.effective_fanin,
            interconnect=policy.resolved_interconnect(),
        )

    def task_graph(self, plan):
        from repro.distributed.sharded import emit_sharded_layers

        return emit_sharded_layers(plan._schedule)

    def panels(self, plan):
        return ()

    def _tallest_shard_panels(self, plan):
        from repro.runtime.plan import _panel_specs

        rows = plan._schedule.rows
        if not rows:
            return ()
        s0, e0 = rows[0]  # the first shard is the tallest
        return _panel_specs(e0 - s0, plan.n, plan.policy)

    def scratch_bytes(self, plan):
        from repro.runtime.plan import _wy_scratch_bytes

        shard_panels = self._tallest_shard_panels(plan)
        if not shard_panels:
            return 0
        return plan._schedule.shards * _wy_scratch_bytes(
            plan.policy, shard_panels, plan.dtype.itemsize
        )

    def level0(self, plan):
        heights = tuple(p.block_rows for p in self._tallest_shard_panels(plan))
        return heights, " (tallest shard)"

    def detail(self, policy):
        return f" (shards={policy.shards}, fanin={policy.effective_fanin})"


class _Streaming(Engine):
    required = ("chunk_rows",)
    modeled = False

    def build(self, plan):
        from repro.streaming.qr import build_stream_schedule

        return build_stream_schedule(plan.m, plan.n, plan.policy.chunk_rows)

    def factor(self, plan, A, q_out=None):
        from repro.streaming.qr import run_streaming_matrix

        return run_streaming_matrix(A, plan.policy, schedule=plan._schedule)

    def simulate(self, m, n, policy, cfg, dev, streams=None):
        raise ValueError(
            "simulate: the streaming path is out-of-core (no single "
            "modeled timeline); simulate the per-chunk shape "
            f"({policy.chunk_rows} x {n}) instead"
        )

    def task_graph(self, plan):
        from repro.streaming.graphs import emit_streaming_layers

        return emit_streaming_layers(
            plan.m, plan.n, plan.policy.chunk_rows, schedule=plan._schedule
        )

    def panels(self, plan):
        # One full-height chunk: the shape every steady-state chunk replays.
        from repro.runtime.plan import _panel_specs

        m, chunk = plan.m, plan.policy.chunk_rows
        ch = min(chunk, m) if m else chunk
        return _panel_specs(ch, plan.n, plan.policy) if ch and plan.n else ()

    def scratch_bytes(self, plan):
        # The out-of-core resident bound: one chunk's compact-WY factors
        # plus the n x n carry and the (2n) x n merge stack — not a
        # function of m.
        from repro.runtime.plan import _wy_scratch_bytes

        itemsize = plan.dtype.itemsize
        scratch = _wy_scratch_bytes(plan.policy, plan.panels, itemsize)
        return scratch + 3 * min(plan.m, plan.n) * plan.n * itemsize

    def level0(self, plan):
        return super().level0(plan)[0], " (per chunk)"

    def detail(self, policy):
        return f" (chunk_rows={policy.chunk_rows})"


LOOKAHEAD, CHOLQR, SHARDED, STREAMING = ENGINES = (
    _Lookahead(), _CholQR(), _Sharded(), _Streaming(),
)


@dataclass(frozen=True)
class PathSpec:
    """One path name's engine and the flags its engine reads.

    Attributes:
        engine: the :class:`Engine` that plans and runs the path.
        structured: stacked-triangle tree elimination.
        mixed: float32 first-pass Gram (CholeskyQR2).
        fallback: guard refusals fall back to the look-ahead tree
            instead of raising.
        coalescable: the serving layer's stacked arithmetic reproduces
            this path bit for bit.
    """

    engine: Engine
    structured: bool = False
    mixed: bool = False
    fallback: bool = False
    coalescable: bool = False

    @property
    def permits(self) -> tuple[str, ...]:
        return self.engine.required + self.engine.permits


PATHS: dict[str, PathSpec] = {
    "batched": PathSpec(LOOKAHEAD, coalescable=True),
    "structured": PathSpec(LOOKAHEAD, structured=True),
    "lookahead": PathSpec(LOOKAHEAD),
    "cholqr2": PathSpec(CHOLQR),
    "cholqr2_mixed": PathSpec(CHOLQR, mixed=True),
    "auto": PathSpec(CHOLQR, fallback=True),
    "sharded": PathSpec(SHARDED),
    "streaming": PathSpec(STREAMING),
}

PATH_NAMES = tuple(PATHS)

# The condition-guarded BLAS3 paths (``auto`` starts on the cheap path
# and owns the fallback).
CHOLQR_PATHS = tuple(name for name, spec in PATHS.items() if spec.engine is CHOLQR)


# Fields only some engines take, in validation order: each engine
# requires or permits a subset.
_GATED = ("condition_limit", "shards", "fanin", "chunk_rows", "interconnect")
# What a required field means, for the "requires" error.
_REQUIRED_MEANING = {
    "shards": "the simulated rank count",
    "chunk_rows": "the tall-axis chunk height",
}
# Out-of-scope errors whose wording names more than the permitting paths.
_SCOPE_ERRORS = {
    "condition_limit": f"condition_limit applies to the CholeskyQR2 paths {CHOLQR_PATHS}",
}


def _scope_error(name: str) -> str:
    if name in _SCOPE_ERRORS:
        return _SCOPE_ERRORS[name]
    scope = " or ".join(f"path={p!r}" for p, spec in PATHS.items() if name in spec.permits)
    return f"{name} applies only to {scope}"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a factorization executes (everything except the matrix).

    Attributes:
        path: execution path name (see module docstring).
        panel_width / block_rows / tree_shape: numeric panel geometry.
            These are deliberately separate from ``config`` — the fuzz
            grid exercises geometries (e.g. ``block_rows < panel_width``,
            free-form tree names) that the modeled-domain
            :class:`~repro.kernels.config.KernelConfig` cannot represent.
            ``panel_width`` is the requested column-panel width; ``None``
            (the default) lets the engine choose
            (:meth:`effective_panel_width`): one full-width panel on the
            look-ahead engine (``batched``, ``structured``, ``lookahead``
            and ``auto``'s fallback) when ``m >= n``, the paper's
            ``PAPER_PANEL_WIDTH = 16`` on a wide matrix and on every
            other engine.  An explicit width is used as given.
            ``block_rows`` is the requested level-0 row-block height;
            ``None`` (the default) means the host rule of
            :func:`repro.core.tsqr.level0_rows`: blocks
            ``TALL_BLOCK_WIDTHS`` panel widths tall.  An explicit height
            is kept whenever it is at least the panel width — the
            paper's 64 x 16, which ``KernelConfig``, the dispatcher and
            serving pin.
        nonfinite: input guard policy (``"raise"`` / ``"propagate"``),
            see :mod:`repro.verify.guards`.
        device / config: modeled-domain device and kernel configuration
            used by ``plan.simulate()``; ``None`` resolves lazily to the
            C2050 reference setup so constructing a policy never imports
            the simulator stack.
        condition_limit: guard threshold for the CholeskyQR2 paths —
            the largest Gram-diagonal condition estimate the cheap path
            accepts before raising (``cholqr2`` / ``cholqr2_mixed``) or
            falling back to the look-ahead tree (``auto``).  ``None``
            resolves to the dtype-aware default inside
            :class:`repro.runtime.cholqr.CholQRGuard`.
        shards: simulated rank count for ``path="sharded"`` (required
            there, rejected elsewhere).  The effective count clamps to
            the row count at run time so tiny matrices never deal empty
            shards.
        fanin: reduction-tree arity for the sharded path (default 2,
            i.e. binomial); sharded-only.
        interconnect: name of a calibrated alpha-beta link model from
            ``repro.distributed.comm.INTERCONNECTS`` used to charge the
            sharded path's inter-rank traffic (default ``"pcie2"``);
            sharded-only.
        chunk_rows: tall-axis chunk height for ``path="streaming"``
            (required there, rejected elsewhere).  Each chunk is
            factored locally and folded into the running triangle, so
            this is the knob that trades per-chunk arithmetic
            efficiency against resident memory — the streaming path
            never holds more than one chunk plus the n x n carry.
        trace: optional :class:`repro.obs.TraceSession`; every
            policy-accepting entry point activates it for the duration of
            the call (``obs.maybe_trace``), so spans from each
            factorization under this policy accumulate into one capture.
            ``None`` (the default) keeps tracing disabled.
    """

    path: str = "batched"
    panel_width: int | None = None
    block_rows: int | None = None
    tree_shape: str = "quad"
    nonfinite: str = "raise"
    condition_limit: float | None = None
    shards: int | None = None
    fanin: int | None = None
    interconnect: str | None = None
    chunk_rows: int | None = None
    device: Any | None = field(default=None, compare=False)
    config: Any | None = field(default=None, compare=False)
    trace: Any | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        spec = PATHS.get(self.path)
        if spec is None:
            raise ValueError(
                f"unknown execution path {self.path!r}; known: {PATH_NAMES}"
            )
        if self.panel_width is not None and self.panel_width < 1:
            raise ValueError("panel_width must be positive")
        if self.block_rows is not None and self.block_rows < 1:
            raise ValueError("block_rows must be positive")
        for name in _GATED:
            is_set = getattr(self, name) is not None
            if name in spec.engine.required and not is_set:
                raise ValueError(
                    f"path={self.path!r} requires {name}= ({_REQUIRED_MEANING[name]})"
                )
            if is_set and name not in spec.permits:
                raise ValueError(f"{_scope_error(name)}, got path={self.path!r}")
        if self.condition_limit is not None and not self.condition_limit > 0:
            raise ValueError("condition_limit must be positive")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be positive")
        if self.fanin is not None and self.fanin < 2:
            raise ValueError("fanin must be at least 2")
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        if self.interconnect is not None:
            from repro.distributed.comm import INTERCONNECTS

            if self.interconnect not in INTERCONNECTS:
                raise ValueError(
                    f"unknown interconnect {self.interconnect!r}; "
                    f"known: {tuple(INTERCONNECTS)}"
                )
        validate_nonfinite_policy(self.nonfinite, "ExecutionPolicy")

    # -- derived views -----------------------------------------------------

    @property
    def spec(self):
        """This path's row of the engine table (a :class:`PathSpec`)."""
        return PATHS[self.path]

    @property
    def engine(self):
        """The :class:`Engine` that plans and runs this path."""
        return self.spec.engine

    @property
    def uses_structured(self) -> bool:
        """Whether tree nodes use the stacked-triangle elimination."""
        return self.spec.structured

    @property
    def uses_cholqr(self) -> bool:
        """Whether the CholeskyQR2 fast-path engine runs first."""
        return self.spec.engine is CHOLQR

    def effective_panel_width(self, m: int, n: int) -> int:
        """The panel width this path's engine uses on an ``m x n`` matrix."""
        return self.engine.panel_width(self, m, n)

    @property
    def effective_fanin(self) -> int:
        """Sharded reduction-tree arity (binomial when unset)."""
        return 2 if self.fanin is None else self.fanin

    def resolved_interconnect(self):
        """The calibrated link model for the sharded path's traffic."""
        from repro.distributed.comm import DEFAULT_INTERCONNECT, INTERCONNECTS

        return INTERCONNECTS[self.interconnect or DEFAULT_INTERCONNECT]

    def resolved_device(self):
        """The modeled device (C2050 unless overridden)."""
        if self.device is not None:
            return self.device
        from repro.gpusim.device import C2050

        return C2050

    def resolved_config(self):
        """The modeled kernel configuration (reference unless overridden)."""
        if self.config is not None:
            return self.config
        from repro.kernels.config import REFERENCE_CONFIG

        return REFERENCE_CONFIG

    def with_nonfinite(self, nonfinite: str) -> "ExecutionPolicy":
        """Copy with a different guard policy (internal re-entry helper)."""
        if nonfinite == self.nonfinite:
            return self
        return replace(self, nonfinite=nonfinite)
