"""Randomized partial SVD with a TSQR range finder.

The Robust PCA iteration only needs the singular values above the
threshold, yet Section VI computes a full thin SVD each time.  A
randomized range finder (Halko-Martinsson-Tropp) needs exactly one
tall-skinny QR — this library's specialty — of the sampled matrix
``A Omega``: a natural extension the paper's machinery makes cheap, and
the basis of the rank-adaptive SVT in :mod:`repro.rpca`.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.policy import ExecutionPolicy
from repro.verify.guards import validate_matrix

from .jacobi_svd import jacobi_svd
from .tsqr import _tsqr_impl, level0_rows

__all__ = [
    "emit_rsvd_layers",
    "randomized_range_finder",
    "randomized_svd",
    "randomized_svd_graph",
]

# The range finder samples thin (k + oversample wide) matrices, so the
# paper's 64-row blocks would make needlessly deep trees: 256 rows is the
# pre-policy default, kept as this module's base policy.
_RSVD_DEFAULT = ExecutionPolicy(block_rows=256)


def _tsqr_q(Y: np.ndarray, policy: ExecutionPolicy) -> np.ndarray:
    """Explicit TSQR Q under ``policy``, threading its column formation
    when the policy carries workers.

    Internal only — the caller validated its input already, so this goes
    straight to :func:`~repro.core.tsqr._tsqr_impl` (no guard re-scan).
    """
    f = _tsqr_impl(
        Y,
        block_rows=policy.block_rows,
        tree_shape=policy.tree_shape,
        structured=policy.uses_structured,
        batched=policy.uses_batched,
    )
    if policy.effective_workers > 1:
        from repro.graph.executor import form_q_columns

        return form_q_columns(f, workers=policy.effective_workers)
    return f.form_q()


def randomized_range_finder(
    A: np.ndarray,
    k: int,
    oversample: int = 8,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> np.ndarray:
    """Orthonormal basis approximately spanning A's leading k-range.

    ``Q = tsqr_qr(A @ Omega)`` with Gaussian ``Omega`` and optional
    power iterations (each one re-orthogonalized through TSQR for
    stability).  A ``policy`` with ``workers > 1`` threads the explicit-Q
    formation through :func:`repro.graph.executor.form_q_columns`.  The
    SVD pipeline computes in float64 regardless of input precision.
    """
    policy = policy if policy is not None else _RSVD_DEFAULT
    A = validate_matrix(
        A, where="randomized_range_finder", nonfinite=policy.nonfinite, dtype=np.float64
    )
    m, n = A.shape
    if k < 1:
        raise ValueError("target rank k must be >= 1")
    ell = min(k + oversample, n)
    rng = rng or np.random.default_rng(0)
    Y = A @ rng.standard_normal((n, ell))
    Q = _tsqr_q(Y, policy)
    for _ in range(power_iters):
        Z = A.T @ Q
        if n < level0_rows(policy.block_rows, ell):
            Zq, _ = np.linalg.qr(Z)
        else:
            Zq = _tsqr_q(Z, policy)
        Y = A @ Zq
        Q = _tsqr_q(Y, policy)
    return Q


def randomized_svd(
    A: np.ndarray,
    k: int,
    oversample: int = 8,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate rank-k thin SVD ``A ~= U diag(s) V^T``.

    Returns factors truncated to ``k`` columns.  Accuracy follows the HMT
    bounds: near-exact when A's spectrum decays past rank k (exactly the
    Robust PCA situation, where L is low-rank by construction).
    """
    policy = policy if policy is not None else _RSVD_DEFAULT
    A = validate_matrix(A, where="randomized_svd", nonfinite=policy.nonfinite, dtype=np.float64)
    m, n = A.shape
    if m < n:
        U, s, Vt = randomized_svd(
            A.T,
            k,
            oversample,
            power_iters,
            rng,
            policy=policy.with_nonfinite("propagate"),
        )
        return Vt.T, s, U.T
    Q = randomized_range_finder(
        A,
        k,
        oversample,
        power_iters,
        rng,
        policy=policy.with_nonfinite("propagate"),
    )
    B = Q.T @ A  # ell x n, small
    Ub, s, Vt = jacobi_svd(B.T)  # jacobi wants tall: factor B^T
    # B = (Vt.T * s) @ Ub.T  =>  B's left vectors are Vt.T's columns.
    U_small, s, Vt_small = Vt.T, s, Ub.T
    U = Q @ U_small
    k = min(k, s.size)
    return U[:, :k], s[:k], Vt_small[:k]


# ---------------------------------------------------------------------------
# Task-graph producer --------------------------------------------------------
# ---------------------------------------------------------------------------


def emit_rsvd_layers(
    m: int,
    n: int,
    k: int,
    oversample: int = 8,
    power_iters: int = 1,
    policy: ExecutionPolicy | None = None,
    bind: dict | None = None,
):
    """Compile the rSVD pipeline into four task-graph layers.

    ``sketch`` (Gaussian sampling / re-sampling ``Y = A @ Omega``),
    ``qr`` (the TSQR orthonormalizations — the paper's kernel),
    ``project`` (the ``A``-side GEMMs of the power iteration and the
    final ``B = Qᵀ A``) and ``svd`` (the small Jacobi SVD + truncation).
    Registered as the ``rsvd`` producer in
    :data:`repro.graph.highlevel.PRODUCERS`.

    Without ``bind``, the graph is structural (``fn=None``) — pure shape
    arithmetic, which is what the CI fingerprint gate pins.  With
    ``bind`` (a dict holding ``A`` and ``rng``), each task carries a
    closure reading and writing the bind state; dependencies are a
    single chain, so any topological execution performs the exact
    operation sequence of :func:`randomized_svd` — bit-identical by
    construction.  Results land in ``bind["U"]/["s"]/["Vt"]``.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if k < 1:
        raise ValueError("target rank k must be >= 1")
    from repro.graph.highlevel import TaskGraph

    policy = policy if policy is not None else _RSVD_DEFAULT
    ell = min(k + oversample, n)
    st = bind

    def payload(f):
        return f if st is not None else None

    tg = TaskGraph(name=f"rsvd[{m}x{n}]")
    tg.add_layer("sketch")
    tg.add_layer("qr")
    tg.add_layer("project")
    tg.add_layer("svd")

    def do_sketch() -> None:
        st["Y"] = st["A"] @ st["rng"].standard_normal((n, ell))

    def do_qr() -> None:
        st["Q"] = _tsqr_q(st["Y"], policy)

    def do_power_project() -> None:
        st["Z"] = st["A"].T @ st["Q"]

    def do_power_qr() -> None:
        if n < level0_rows(policy.block_rows, ell):
            st["Zq"] = np.linalg.qr(st["Z"])[0]
        else:
            st["Zq"] = _tsqr_q(st["Z"], policy)

    def do_power_sketch() -> None:
        st["Y"] = st["A"] @ st["Zq"]

    def do_project() -> None:
        st["B"] = st["Q"].T @ st["A"]

    def do_svd() -> None:
        Ub, s, Vt = jacobi_svd(st["B"].T)
        U_small, s, Vt_small = Vt.T, s, Ub.T
        U = st["Q"] @ U_small
        kk = min(k, s.size)
        st["U"], st["s"], st["Vt"] = U[:, :kk], s[:kk], Vt_small[:kk]

    prev = tg.add_task("sketch", ("sketch", 0), payload(do_sketch), ell=ell)
    prev = tg.add_task("qr", ("qr", 0), payload(do_qr), deps=[prev])
    for i in range(power_iters):
        prev = tg.add_task(
            "project", ("power_project", i), payload(do_power_project), deps=[prev]
        )
        prev = tg.add_task("qr", ("power_qr", i), payload(do_power_qr), deps=[prev])
        prev = tg.add_task(
            "sketch", ("sketch", i + 1), payload(do_power_sketch), deps=[prev]
        )
        prev = tg.add_task("qr", ("qr", i + 1), payload(do_qr), deps=[prev])
    prev = tg.add_task("project", ("project",), payload(do_project), deps=[prev])
    tg.add_task("svd", ("svd",), payload(do_svd), deps=[prev], k=k)
    return tg


def randomized_svd_graph(
    A: np.ndarray,
    k: int,
    oversample: int = 8,
    power_iters: int = 1,
    rng: np.random.Generator | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`randomized_svd` compiled to a task graph and run on the
    shared executor (:func:`repro.graph.executor.run_task_graph`).

    Performs the identical operation sequence task by task, so the
    result is bit-identical to the direct call — while every stage gets
    an obs span and the pipeline composes with other graphs.
    """
    policy = policy if policy is not None else _RSVD_DEFAULT
    A = validate_matrix(
        A, where="randomized_svd_graph", nonfinite=policy.nonfinite, dtype=np.float64
    )
    m, n = A.shape
    if m < n:
        U, s, Vt = randomized_svd_graph(
            A.T,
            k,
            oversample,
            power_iters,
            rng,
            policy=policy.with_nonfinite("propagate"),
        )
        return Vt.T, s, U.T
    from repro.graph.executor import run_task_graph

    st: dict = {"A": A, "rng": rng or np.random.default_rng(0)}
    tg = emit_rsvd_layers(m, n, k, oversample, power_iters, policy=policy, bind=st)
    run_task_graph(tg, workers=policy.effective_workers, instrument=True)
    return st["U"], st["s"], st["Vt"]
