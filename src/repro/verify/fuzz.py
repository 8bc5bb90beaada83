"""Differential fuzz harness over every CAQR execution path.

``python -m repro verify`` drives this module: a seeded grid of shapes
(including 0-row/0-col, square, m < n, single-panel and
panel_width > n), dtypes (float64/float32), memory layouts (C, Fortran,
strided views) and matrix kinds (Gaussian, graded spectrum, extreme
"huge"/"tiny" scales that stress the rescaled reflector path), each
factored through every execution path —

* ``batched``       — the look-ahead driver (the default)
* ``structured``    — the driver with the stacked-triangle tree merges
* ``lookahead``     — the look-ahead driver under its own name
* ``cholqr2``       — BLAS3 CholeskyQR2 (guard *refuses* ill-conditioned)
* ``cholqr2_mixed`` — CholeskyQR2 with a float32 first-pass Gram
* ``auto``          — condition-guarded cholqr2 with tree fallback
* ``sharded``       — multi-device CAQR over 3 simulated ranks
* ``streaming``     — out-of-core chunked CAQR (11-row chunks)

— one identity per path name of the engine table
(:data:`repro.runtime.policy.PATHS`), so a new path cannot skip the grid —
and cross-checked three ways: the QR invariants of
:mod:`repro.verify.invariants` (orthogonality, residual,
triangularity, shape/dtype contracts vs ``np.linalg.qr``), direct
factor agreement with ``np.linalg.qr`` after sign canonicalization
(well-conditioned matrices only — forward R/Q perturbation bounds carry
a condition-number factor, so graded matrices check invariants only),
and pairwise agreement between paths.  The modeled CAQR launch-stream
fingerprint is asserted stable for every factorable shape in the grid.

The CholeskyQR2 paths carry extra differential semantics: a
:class:`~repro.core.cholesky_qr.CholeskyBreakdownError` from an
*explicit* cholqr path on an adversarial (non-Gaussian) kind is an
accepted refusal, not a divergence; ``auto`` must never raise it, must
never fall back on a Gaussian matrix, and must provably fall back
(fallback counter > 0) somewhere in any sweep that includes
ill-conditioned kinds.  Tall well-conditioned cases additionally factor
through :func:`repro.core.gram_schmidt.cgs2` as an independent
"twice is enough" reference.  Every case also factors the whole matrix
through :func:`repro.core.tsqr.tsqr_qr` at the case's geometry, with
the batched and the structured tree (:data:`TSQR_PATHS`): the QR the
RPCA SVD runs, with its orgqr-form Q.  Both references are checked for
the invariants, and well-conditioned ones against ``np.linalg.qr``.
For each coalescable path (``batched``) the case is also stacked between
two same-shape matrices through a :class:`~repro.serving.ServingPlan`:
its slice of ``stacked_qr`` must equal ``plan_qr(...).factor(A)`` bit
for bit, the serving coalescer's contract.  On every path,
``plan.execute(A)`` and ``plan.execute(A, out=buf)`` must equal
``caqr(A, policy).form_q()`` and ``.R`` bit for bit: an execute hands Q's
buffer to the engine, which can factor in it and form Q over its own
reflectors, while the factors ``caqr`` returns keep theirs.  On every
path of the look-ahead engine those factors also go through an
in-memory :mod:`repro.io` archive: the loaded R, ``form_q()`` and
``apply_qt`` of a seeded block must equal the originals' bit for bit.
Every path whose factors apply Q in place on ``m`` rows (the look-ahead,
sharded and streaming engines) is also checked against itself: within
:func:`~repro.verify.invariants.qr_tolerance`, ``apply_q(apply_qt(B))``
must give back a seeded ``B`` and ``apply_qt(A)[:k]`` must give R.

Any divergence is reported with a minimal standalone repro snippet.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from repro.core.caqr import caqr
from repro.core.cholesky_qr import CholeskyBreakdownError
from repro.core.dtypes import working_dtype
from repro.core.gram_schmidt import cgs2
from repro.core.tsqr import tsqr_qr
from repro.core.validation import sign_canonical
from repro.io import load_caqr, save_caqr
from repro.runtime.cholqr import count_fallbacks
from repro.runtime.plan import plan_qr
from repro.runtime.policy import CHOLQR, LOOKAHEAD, SHARDED, STREAMING, ExecutionPolicy, PathSpec
from repro.runtime.policy import PATHS as ENGINE_TABLE
from repro.serving import ServingPlan, stacked_qr

from .invariants import launch_fingerprint, qr_invariants, qr_tolerance

__all__ = [
    "PATHS",
    "TSQR_PATHS",
    "FuzzCase",
    "Divergence",
    "FuzzReport",
    "policy_for",
    "run_case",
    "generate_cases",
    "run_grid",
]


# The fuzz's values for the policy fields an engine requires.  Sharded:
# 3 ranks (uneven deals on most shapes) over the default binomial fan-in;
# the effective rank count clamps to the row count, so degenerate grid
# shapes run too.  Streaming: an 11-row chunk leaves a ragged tail on
# most grid shapes and forces chunks narrower than the panel width, so
# the folds run with a short carry and with a full one against the
# in-core paths.
_REQUIRED_VALUES = {"shards": 3, "chunk_rows": 11}

# ExecutionPolicy field overrides per fuzz identity, keyed by the name
# the report uses: one per path name of the engine table.
PATHS: dict[str, dict] = {
    name: {"path": name, **{f: _REQUIRED_VALUES[f] for f in spec.engine.required}}
    for name, spec in ENGINE_TABLE.items()
}

# Whole-matrix TSQR references: fuzz name -> the policy path whose tree
# ``tsqr_qr`` runs.  They are not engine-table identities (TSQR is the
# panel kernel under them), so they sit beside ``cgs2``, not in PATHS.
TSQR_PATHS: dict[str, str] = {"tsqr": "batched", "tsqr_structured": "structured"}


def _spec(name: str) -> PathSpec:
    """The engine-table row of a fuzz identity."""
    return ENGINE_TABLE[PATHS[name]["path"]]


def policy_for(
    name: str,
    panel_width: int | None = 16,
    block_rows: int | None = 64,
    tree_shape: str = "quad",
    nonfinite: str = "raise",
) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` a fuzz path name denotes."""
    return ExecutionPolicy(
        panel_width=panel_width,
        block_rows=block_rows,
        tree_shape=tree_shape,
        nonfinite=nonfinite,
        **PATHS[name],
    )

# Factor on the pairwise/vs-numpy comparison tolerance: looser than the
# invariant bound because two independently-rounded stable QRs of the
# same matrix may differ by a modest multiple of the backward error.
_PAIR_FACTOR = 2000.0


@dataclass(frozen=True)
class FuzzCase:
    """One matrix + parameter combination of the differential grid."""

    m: int
    n: int
    dtype: str = "float64"  # "float64" | "float32"
    order: str = "C"  # "C" | "F" | "strided"
    kind: str = "gauss"  # "gauss" | "graded" | "huge" | "tiny"
    panel_width: int | None = 16  # None: the engine's default (one tall look-ahead panel)
    block_rows: int | None = 64  # None: the host default (tsqr.level0_rows)
    tree_shape: str = "quad"
    seed: int = 0

    def build(self) -> np.ndarray:
        """Materialize the case's matrix (deterministic in ``seed``)."""
        rng = np.random.default_rng(self.seed)
        A = rng.standard_normal((self.m, self.n))
        k = min(self.m, self.n)
        if self.kind == "graded" and k >= 2:
            # Geometric singular values spanning six decades.
            U, _, Vt = np.linalg.svd(A, full_matrices=False)
            A = (U * np.logspace(0, -6, k)) @ Vt
        A = A.astype(self.dtype)
        if self.kind in ("huge", "tiny"):
            # Extreme but representable magnitudes: in float32, "huge"
            # entries square past float32 max, exercising the rescaled
            # reflector path in house()/batched_house(); "tiny" entries
            # square to zero, which once produced spurious identity
            # reflectors.  Cross-check metrics run in float64 and stay
            # finite at these scales.
            exp = 30 if self.dtype == "float32" else 150
            A = A * A.dtype.type(10.0 ** (exp if self.kind == "huge" else -exp))
        if self.order == "F":
            A = np.asfortranarray(A)
        elif self.order == "strided":
            buf = np.zeros((2 * self.m + 1, 2 * self.n + 1), dtype=A.dtype)
            view = buf[0 : 2 * self.m : 2, 0 : 2 * self.n : 2]
            view[...] = A
            A = view
        return A

    def policy(self, path: str) -> ExecutionPolicy:
        """The execution policy this case runs path ``path`` under."""
        return policy_for(
            path,
            panel_width=self.panel_width,
            block_rows=self.block_rows,
            tree_shape=self.tree_shape,
        )

    def tsqr_policy(self, name: str) -> ExecutionPolicy:
        """The policy whole-matrix TSQR reference ``name`` runs under."""
        return ExecutionPolicy(
            path=TSQR_PATHS[name], block_rows=self.block_rows, tree_shape=self.tree_shape
        )

    def repro(self, path: str) -> str:
        """Minimal standalone snippet reproducing this case on ``path``."""
        build = f"from repro.verify.fuzz import FuzzCase\nA = {self!r}.build()\n"
        if path == "cgs2":
            return f"from repro.core.gram_schmidt import cgs2\n{build}Q, R = cgs2(A)"
        if path in TSQR_PATHS:
            fields = dict(path=TSQR_PATHS[path], block_rows=self.block_rows,
                          tree_shape=self.tree_shape)
            module, fn = "tsqr", "tsqr_qr"
        elif path in PATHS:
            fields = dict(panel_width=self.panel_width, block_rows=self.block_rows,
                          tree_shape=self.tree_shape, **PATHS[path])
            module, fn = "caqr", "caqr_qr"
        else:  # a grid-level finding (e.g. the fingerprint check)
            return build.rstrip("\n")
        kw = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        return (
            f"from repro.core.{module} import {fn}\n"
            "from repro.runtime import ExecutionPolicy\n"
            f"{build}Q, R = {fn}(A, policy=ExecutionPolicy({kw}))"
        )


@dataclass(frozen=True)
class Divergence:
    """One detected disagreement, with enough context to reproduce it."""

    case: FuzzCase
    path: str
    # "exception" | "invariants" | "vs-numpy" | "pairwise" | "fingerprint"
    # | "fallback" (auto fell back on Gaussian input, or a sweep with
    #   adversarial kinds saw no fallback at all)
    # | "serving" (a coalesced slice differs from the plan's own factor)
    # | "execute" (plan.execute(A), with or without out=, differs from
    #   caqr(A, policy).form_q() and .R)
    # | "archive" (the factors' save_caqr/load_caqr round trip lost bits)
    # | "apply" (apply_q(apply_qt(B)) != B, or apply_qt(A)[:k] != R)
    check: str
    detail: str

    def format(self) -> str:
        return (
            f"[{self.check}] path={self.path} "
            f"{self.case.m}x{self.case.n} {self.case.dtype} {self.case.order} "
            f"{self.case.kind} pw={self.case.panel_width} bh={self.case.block_rows} "
            f"tree={self.case.tree_shape} seed={self.case.seed}\n"
            f"    {self.detail}\n"
            f"    repro:\n"
            + "\n".join("      " + line for line in self.case.repro(self.path).splitlines())
        )


@dataclass
class FuzzReport:
    """Outcome of one grid sweep."""

    cases_run: int
    paths_run: int
    divergences: list[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def format(self, max_shown: int = 20) -> str:
        refs = ", ".join([*TSQR_PATHS, "cgs2"])
        lines = [
            f"differential fuzz: {self.cases_run} cases x {self.paths_run} paths "
            f"+ references ({refs}) -> {len(self.divergences)} divergence(s)"
        ]
        for d in self.divergences[:max_shown]:
            lines.append(d.format())
        if len(self.divergences) > max_shown:
            lines.append(f"... and {len(self.divergences) - max_shown} more")
        if self.ok:
            lines.append("all paths agree with np.linalg.qr and with each other")
        return "\n".join(lines)


def _factor_diff(Q1, R1, Q2, R2, scale: float) -> tuple[float, float]:
    """Max-abs differences of sign-canonicalized factors (R scaled)."""
    Q1c, R1c = sign_canonical(Q1, R1)
    Q2c, R2c = sign_canonical(Q2, R2)
    dq = float(np.abs(Q1c - Q2c).max()) if Q1c.size else 0.0
    dr = float(np.abs(R1c - R2c).max()) / scale if R1c.size else 0.0
    return dq, dr


def _serving_divergence(case: FuzzCase, name: str, A: np.ndarray) -> list[Divergence]:
    """``A`` stacked between two same-shape matrices through a
    :class:`ServingPlan` against ``plan_qr(...).factor(A)``, bit for bit."""
    m, n = A.shape
    policy = case.policy(name)
    f = plan_qr(m, n, A.dtype, policy).factor(A)
    Q1, R1 = f.form_q(), f.R
    rng = np.random.default_rng(case.seed + 1)
    before, after = rng.standard_normal((2, m, n)).astype(A.dtype)
    Q, R = stacked_qr([before, A, after], ServingPlan(m, n, A.dtype, policy))
    if np.array_equal(Q[1], Q1) and np.array_equal(R[1], R1):
        return []
    dq = float(np.abs(Q[1] - Q1).max())
    dr = float(np.abs(R[1] - R1).max())
    return [Divergence(
        case, name, "serving",
        f"stacked_qr slice != plan_qr(...).factor: max|dQ|={dq:.3e} max|dR|={dr:.3e}",
    )]


def _execute_divergence(
    case: FuzzCase, name: str, A: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> list[Divergence]:
    """``plan.execute(A)`` and ``plan.execute(A, out=buf)`` against the
    ``caqr(A, policy).form_q()`` and ``.R`` of the same policy, bit for bit."""
    m, n = A.shape
    plan = plan_qr(m, n, working_dtype(A), case.policy(name))
    buf = np.full((m, min(m, n)), np.nan, dtype=plan.dtype)
    divs = []
    for route, out in (("execute(A)", None), ("execute(A, out=buf)", buf)):
        try:
            Qe, Re = plan.execute(A, out=out)
        except Exception as exc:
            divs.append(Divergence(case, name, "execute", f"{route}: {type(exc).__name__}: {exc}"))
            continue
        if out is not None and Qe is not out:
            divs.append(Divergence(case, name, "execute", f"{route} did not return out as Q"))
        elif not (np.array_equal(Qe, Q) and np.array_equal(Re, R)):
            dq = float(np.abs(Qe - Q).max()) if Q.size else 0.0
            dr = float(np.abs(Re - R).max()) if R.size else 0.0
            divs.append(Divergence(
                case, name, "execute",
                f"{route} != caqr(A, policy).form_q(), .R: max|dQ|={dq:.3e} max|dR|={dr:.3e}",
            ))
    return divs


def _archive_divergence(case: FuzzCase, name: str, f, Q: np.ndarray) -> list[Divergence]:
    """``f`` (with ``Q = f.form_q()``) through an in-memory archive: the
    loaded R, ``form_q()`` and ``apply_qt`` of a seeded block, bit for bit."""
    B = np.random.default_rng(case.seed + 2).standard_normal((case.m, 3)).astype(f.R.dtype)
    buf = io.BytesIO()
    try:
        save_caqr(buf, f)
        buf.seek(0)
        g = load_caqr(buf)
        same = np.array_equal(g.R, f.R) and np.array_equal(g.form_q(), Q)
        same = same and np.array_equal(g.apply_qt(B.copy()), f.apply_qt(B))
    except Exception as exc:
        return [Divergence(case, name, "archive", f"{type(exc).__name__}: {exc}")]
    return [] if same else [Divergence(case, name, "archive", "loaded R, Q or Q^T B differ")]


# The engines whose factors apply Q and Q^T in place on m rows.
_IN_PLACE = (LOOKAHEAD, SHARDED, STREAMING)


def _apply_divergence(case: FuzzCase, name: str, A: np.ndarray, f, scale: float) -> list[Divergence]:
    """``f`` against itself, within ``qr_tolerance``: ``apply_q(apply_qt(B))``
    of a seeded block is B, and ``apply_qt(A)[:k]`` is R (over ``||A||``)."""
    m, k = case.m, min(case.m, case.n)
    dt = f.R.dtype
    B = np.random.default_rng(case.seed + 3).standard_normal((m, 3)).astype(dt)
    try:
        back = f.apply_q(f.apply_qt(B.copy()))
        QtA = f.apply_qt(np.array(A, dtype=dt))
    except Exception as exc:
        return [Divergence(case, name, "apply", f"{type(exc).__name__}: {exc}")]
    db = float(np.abs(back.astype(np.float64) - B).max()) if B.size else 0.0
    dr = float(np.abs(QtA[:k].astype(np.float64) - f.R).max()) / scale if f.R.size else 0.0
    tol = qr_tolerance(m, case.n, dt)
    if db <= tol and dr <= tol:
        return []
    return [Divergence(
        case, name, "apply",
        f"max|Q Q^T B - B|={db:.3e} max|(Q^T A)[:k] - R|/||A||={dr:.3e} > tol {tol:.3e}",
    )]


def run_case(case: FuzzCase, paths: list[str] | None = None) -> list[Divergence]:
    """Run every requested path on one case; return all divergences."""
    names = list(PATHS) if paths is None else list(paths)
    A = case.build()
    m, n = case.m, case.n
    divs: list[Divergence] = []
    ref_Q, ref_R = np.linalg.qr(A, mode="reduced")
    # Norm in float64: a float32 "huge" case would overflow its own norm.
    scale = max(float(np.linalg.norm(np.asarray(A, dtype=np.float64))), 1.0)
    pair_tol = qr_tolerance(m, n, A.dtype, factor=_PAIR_FACTOR)
    # Scaled Gaussians ("huge"/"tiny") stay well-conditioned; only graded
    # spectra get invariants-only treatment.
    well_conditioned = case.kind != "graded" and min(m, n) > 0

    def vs_numpy(name: str, Q: np.ndarray, R: np.ndarray) -> None:
        dq, dr = _factor_diff(Q, R, ref_Q, ref_R, scale)
        if dq > pair_tol or dr > pair_tol:
            divs.append(
                Divergence(
                    case,
                    name,
                    "vs-numpy",
                    f"max|dQ|={dq:.3e} max|dR|/||A||={dr:.3e} > tol {pair_tol:.3e}",
                )
            )

    def reference(name: str, qr, compare: bool) -> None:
        try:
            Q, R = qr(A)
        except Exception as exc:
            divs.append(Divergence(case, name, "exception", f"{type(exc).__name__}: {exc}"))
            return
        failures = qr_invariants(A, Q, R).failures()
        if failures:
            divs.append(Divergence(case, name, "invariants", "; ".join(failures)))
        elif compare:
            vs_numpy(name, Q, R)

    results: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in names:
        try:
            with count_fallbacks() as counter:
                f = caqr(A, policy=case.policy(name))  # caqr_qr, keeping the factors
                Q, R = f.form_q(), f.R
        except CholeskyBreakdownError as exc:
            # Explicit cholqr paths contractually refuse input their
            # guard deems too ill-conditioned — an accepted refusal on
            # the adversarial kinds, a finding on Gaussian input.  The
            # adaptive path must never surface a breakdown.
            refuses = _spec(name).engine is CHOLQR and not _spec(name).fallback
            if refuses and case.kind != "gauss":
                continue
            divs.append(Divergence(case, name, "exception", f"{type(exc).__name__}: {exc}"))
            continue
        except Exception as exc:  # a crash on valid input is a finding
            divs.append(Divergence(case, name, "exception", f"{type(exc).__name__}: {exc}"))
            continue
        if _spec(name).fallback and case.kind == "gauss" and counter.fallbacks:
            divs.append(
                Divergence(
                    case,
                    name,
                    "fallback",
                    f"{name} fell back on a Gaussian matrix "
                    f"(stages={counter.stages!r}) — the guard is too tight",
                )
            )
        report = qr_invariants(A, Q, R)
        failures = report.failures()
        if failures:
            divs.append(Divergence(case, name, "invariants", "; ".join(failures)))
            continue
        divs.extend(_execute_divergence(case, name, A, Q, R))
        if _spec(name).engine is LOOKAHEAD:
            divs.extend(_archive_divergence(case, name, f, Q))
        if _spec(name).engine in _IN_PLACE:
            divs.extend(_apply_divergence(case, name, A, f, scale))
        results[name] = (Q, R)
        if well_conditioned:
            vs_numpy(name, Q, R)
    # Independent reference: CGS2 ("twice is enough") through the same
    # guard-validated entry point, cross-checked on tall well-conditioned
    # Gaussian cases — a non-Householder, non-Cholesky orthogonalizer
    # that the BLAS3 paths must agree with.
    if case.kind == "gauss" and 0 < n <= m:
        reference("cgs2", cgs2, compare=True)
    # Serving composition: a coalesced slice is the plan's own factor.
    for name in results:
        if _spec(name).coalescable and min(m, n) > 0:
            divs.extend(_serving_divergence(case, name, A))
    # Whole-matrix TSQR, on every case: no engine above runs it unpaneled.
    for name in TSQR_PATHS:
        policy = case.tsqr_policy(name)
        reference(name, lambda X: tsqr_qr(X, policy=policy), compare=well_conditioned)
    # Pairwise: every surviving path against the first surviving one.
    if well_conditioned and len(results) > 1:
        base_name = next(iter(results))
        Qb, Rb = results[base_name]
        for name, (Q, R) in list(results.items())[1:]:
            dq, dr = _factor_diff(Q, R, Qb, Rb, scale)
            if dq > pair_tol or dr > pair_tol:
                divs.append(
                    Divergence(
                        case,
                        name,
                        "pairwise",
                        f"vs {base_name}: max|dQ|={dq:.3e} max|dR|/||A||={dr:.3e} "
                        f"> tol {pair_tol:.3e}",
                    )
                )
    return divs


# Core shape set: degenerate, square, wide, single-panel, multi-panel,
# non-multiple-of-block, panel wider than the matrix.
CORE_SHAPES: tuple[tuple[int, int], ...] = (
    (0, 5),
    (5, 0),
    (0, 0),
    (1, 1),
    (2, 2),
    (3, 7),
    (7, 3),
    (16, 16),
    (40, 8),
    (33, 7),
    (64, 16),
    (97, 13),
    (130, 20),
    # Two 512-row default blocks of a 16-wide panel (8192 elements, so
    # geqrt) plus a ragged tail.
    (1100, 20),
    # 16-wide panels leave a one-column trailing update whose tree level
    # is one group: the serving identity's gather-layout case.
    (130, 17),
)

# (dtype, order, kind, panel_width, block_rows, tree_shape)
CORE_VARIANTS: tuple[tuple[str, str, str, int | None, int | None, str], ...] = (
    ("float64", "C", "gauss", 16, 64, "quad"),
    ("float64", "C", "gauss", 16, None, "quad"),  # the host default blocks
    # The unset width: one full-width look-ahead panel on tall shapes.
    # The float32 graded spectrum makes auto take that one-panel fallback.
    ("float64", "C", "gauss", None, None, "quad"),
    ("float32", "C", "graded", None, None, "binary"),
    ("float32", "C", "gauss", 16, 64, "quad"),
    ("float64", "F", "graded", 4, 8, "binary"),
    # A float32 graded spectrum overwhelms the float32 Gram condition
    # limit: the explicit cholqr paths must refuse it and the auto path
    # must provably take the tree (the quick grid's guaranteed-fallback
    # coverage).
    ("float32", "C", "graded", 8, 16, "quad"),
    ("float64", "strided", "gauss", 5, 8, "flat"),
    ("float32", "F", "gauss", 8, 16, "binomial"),
    ("float32", "C", "huge", 4, 16, "quad"),
    ("float32", "C", "tiny", 4, 16, "binary"),
    # Three-wide panels: 7, 13 and 16 columns are 1 (mod 3), so the last
    # trailing update is one column wide, where apply_wy's bits depend
    # on the operand strides (the serving composition identity).
    ("float64", "C", "gauss", 3, 8, "binary"),
)

_RANDOM_AXES = {
    "dtype": ("float64", "float32"),
    "order": ("C", "F", "strided"),
    "kind": ("gauss", "graded", "huge", "tiny"),
    "panel_width": (3, 4, 5, 8, 16, 17, None),
    "block_rows": (4, 8, 16, 64, None),
    "tree_shape": ("quad", "binary", "binomial", "flat"),
}


def _pick(rng: np.random.Generator, axis: str):
    """One draw from a random axis that may hold ``None`` (not an ndarray dtype)."""
    values = _RANDOM_AXES[axis]
    return values[int(rng.integers(len(values)))]


def generate_cases(seed: int = 0, n_random: int = 60, quick: bool = False) -> list[FuzzCase]:
    """The deterministic core grid plus ``n_random`` sampled combinations.

    ``quick`` keeps the core grid only (the CI smoke: < 60 s).  Random
    cases draw every axis independently, with shapes biased toward small
    multi-panel sizes and a guaranteed tail of m < n cases.
    """
    cases = [
        FuzzCase(m, n, dtype=dt, order=order, kind=kind, panel_width=pw, block_rows=bh,
                 tree_shape=tree, seed=seed)
        for m, n in CORE_SHAPES
        for dt, order, kind, pw, bh, tree in CORE_VARIANTS
    ]
    if quick:
        return cases
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        if i % 5 == 4:  # guaranteed wide-matrix coverage
            m = int(rng.integers(0, 12))
            n = int(rng.integers(m + 1, m + 20))
        else:
            m = int(rng.integers(1, 161))
            n = int(rng.integers(1, 25))
        cases.append(
            FuzzCase(
                m,
                n,
                dtype=str(rng.choice(_RANDOM_AXES["dtype"])),
                order=str(rng.choice(_RANDOM_AXES["order"])),
                kind=str(rng.choice(_RANDOM_AXES["kind"])),
                panel_width=_pick(rng, "panel_width"),
                block_rows=_pick(rng, "block_rows"),
                tree_shape=str(rng.choice(_RANDOM_AXES["tree_shape"])),
                seed=seed + 1 + i,
            )
        )
    return cases


def run_grid(
    seed: int = 0,
    quick: bool = False,
    n_random: int = 60,
    paths: list[str] | None = None,
    progress=None,
) -> FuzzReport:
    """Sweep the grid; cross-check every path; return the full report."""
    names = list(PATHS) if paths is None else list(paths)
    unknown = [p for p in names if p not in PATHS]
    if unknown:
        raise ValueError(f"unknown path(s) {unknown}; known: {list(PATHS)}")
    cases = generate_cases(seed=seed, n_random=n_random, quick=quick)
    divergences: list[Divergence] = []
    fingerprinted: set[tuple[int, int]] = set()
    with count_fallbacks() as sweep_counter:
        for i, case in enumerate(cases):
            divergences.extend(run_case(case, paths=names))
            shape = (case.m, case.n)
            if shape not in fingerprinted and case.m >= 1 and case.n >= 1:
                fingerprinted.add(shape)
                if launch_fingerprint(*shape) != launch_fingerprint(*shape):
                    divergences.append(
                        Divergence(
                            case,
                            "-",
                            "fingerprint",
                            f"launch fingerprint of {shape} unstable across enumerations",
                        )
                    )
            if progress is not None and (i + 1) % 25 == 0:
                progress(f"  {i + 1}/{len(cases)} cases, {len(divergences)} divergence(s)")
    # The adaptive path must *provably* fall back somewhere: a sweep that
    # includes adversarial kinds and the auto path but never took the
    # tree means the guard went soft (or the fallback counter broke).
    adversarial = [c for c in cases if c.kind != "gauss" and min(c.m, c.n) >= 2]
    falling_back = [name for name in names if _spec(name).fallback]
    if falling_back and adversarial and sweep_counter.fallbacks == 0:
        divergences.append(
            Divergence(
                adversarial[0],
                falling_back[0],
                "fallback",
                f"{len(adversarial)} adversarial case(s) swept but the "
                f"{falling_back[0]} path never fell back to the tree — the "
                f"condition guard is inert",
            )
        )
    return FuzzReport(cases_run=len(cases), paths_run=len(names), divergences=divergences)
