"""One Robust-PCA/IALM iteration as task-graph layers.

The Section VI-C loop body — singular-value threshold via QR (Figure
11), l1 shrinkage, dual update — compiled into the shared
:class:`~repro.graph.highlevel.TaskGraph` so the iteration runs on the
same executor (and gets the same per-task obs spans) as CAQR, rSVD and
the sharded reduction:

* ``qr`` — pass 1 (``X = M - S + Y/mu``) and the tall-skinny QR of X
  (the step worth 30x end to end per Table II), on the workspace's plan
  with Q formed in its ``L`` buffer;
* ``svt`` — small Jacobi SVD of R, ``Q @ U_small``, soft-threshold and
  rebuild of ``L``;
* ``shrink`` — pass 2: ``S = shrink(M - L + Y/mu, lam/mu)``, the
  residual ``M - L - S`` and the dual update ``Y += mu·residual``;
* ``residual`` — the residual norm and the penalty growth
  ``mu = min(mu·rho, mu_max)``.

The tasks call the kernels the direct loop calls
(:class:`~repro.rpca.ialm.IALMWorkspace`,
:func:`~repro.rpca.svt.svt_from_qr`) on the same workspace, so
``rpca_ialm(..., engine="graph")`` is bit-identical to the direct loop
by construction.  Registered as the ``rpca_ialm`` producer in
:data:`repro.graph.highlevel.PRODUCERS`.
"""

from __future__ import annotations

from typing import Callable

from .ialm import IALMWorkspace, RPCAResult
from .svt import svt_from_qr

__all__ = ["emit_ialm_layers", "run_ialm_graph"]


def emit_ialm_layers(m: int, n: int, bind: dict | None = None):
    """Compile one IALM iteration into qr/svt/shrink/residual layers.

    The graph is a four-task chain; emitted once per decomposition and
    re-run every iteration (the closures read their operands from the
    ``bind`` state each time, so no re-emission is needed as ``mu``
    grows).  Without ``bind`` the graph is structural (``fn=None``).
    ``bind`` must hold the :class:`~repro.rpca.ialm.IALMWorkspace` as
    ``ws`` plus ``mu``/``lam``/``rho``/``mu_max``; the tasks update the
    workspace and ``mu`` and deposit ``rank`` and ``res_norm``.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if m < n:
        raise ValueError("the IALM graph factors tall matrices (m >= n); transpose first")
    from repro.graph.highlevel import TaskGraph

    st = bind

    def payload(f: Callable[[], None]):
        return f if st is not None else None

    def do_qr() -> None:
        ws = st["ws"]
        ws.svt_input(st["mu"])
        st["Q"], st["R"] = ws.plan.execute(ws.X, validated=True, out=ws.L)

    def do_svt() -> None:
        ws = st["ws"]
        st["rank"] = svt_from_qr(st.pop("Q"), st.pop("R"), 1.0 / st["mu"], ws.X, ws.L)

    def do_shrink() -> None:
        st["ws"].update(st["ws"].L, st["mu"], st["lam"] / st["mu"])

    def do_residual() -> None:
        st["mu"] = min(st["mu"] * st["rho"], st["mu_max"])
        st["res_norm"] = st["ws"].residual_norm()

    tg = TaskGraph(name=f"rpca_ialm[{m}x{n}]")
    prev = tg.add_task("qr", ("qr",), payload(do_qr))
    prev = tg.add_task("svt", ("svt",), payload(do_svt), deps=[prev])
    prev = tg.add_task("shrink", ("shrink",), payload(do_shrink), deps=[prev])
    tg.add_task("residual", ("residual",), payload(do_residual), deps=[prev])
    return tg


def run_ialm_graph(
    ws: IALMWorkspace,
    *,
    mu: float,
    mu_max: float,
    lam: float,
    rho: float,
    tol: float,
    max_iter: int,
    norm_M: float,
    callback: Callable[[int, float], None] | None = None,
) -> RPCAResult:
    """The IALM loop with each iteration executed as a task graph.

    Called by :func:`repro.rpca.ialm.rpca_ialm` (``engine="graph"``)
    after the shared initialization; returns the same
    :class:`~repro.rpca.ialm.RPCAResult`, bit-identical to the direct
    loop with the default SVT pipeline.
    """
    from repro.graph.executor import run_task_graph

    st: dict = {"ws": ws, "mu": mu, "mu_max": mu_max, "lam": lam, "rho": rho}
    tg = emit_ialm_layers(*ws.M.shape, bind=st)
    residuals: list[float] = []
    ranks: list[int] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        run_task_graph(tg, instrument=True)
        res = float(st["res_norm"] / norm_M)
        residuals.append(res)
        ranks.append(st["rank"])
        if callback is not None:
            callback(it, res)
        if res < tol:
            converged = True
            break
    return RPCAResult(
        L=ws.L,
        S=ws.S,
        n_iterations=it,
        converged=converged,
        residuals=residuals,
        ranks=ranks,
    )
