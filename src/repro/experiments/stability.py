"""Numerical-stability study across QR algorithms (Section II's claim).

"Cholesky QR and the Gram-Schmidt process are not as numerically stable,
so most general-purpose software for QR uses either Givens rotations or
Householder reflectors."  This experiment measures loss of orthogonality
``||Q^T Q - I||`` as a function of the condition number for every
algorithm in the library, in both double and the paper's single
precision, exhibiting the classic separations: Householder (TSQR/CAQR/
blocked) ~ eps, MGS ~ eps * cond, CGS and CholeskyQR ~ eps * cond^2
(with CholeskyQR failing outright past cond ~ 1/sqrt(eps)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocked import blocked_qr
from repro.core.caqr import caqr_qr
from repro.core.cholesky_qr import cholesky_qr
from repro.core.givens import givens_qr
from repro.core.gram_schmidt import classical_gram_schmidt, modified_gram_schmidt
from repro.core.triangular import SingularTriangularError
from repro.core.tsqr import tsqr_qr
from repro.core.validation import orthogonality_error
from repro.runtime.policy import ExecutionPolicy

from .report import format_table

__all__ = ["StabilityRow", "ALGORITHMS", "run", "format_results", "make_conditioned"]

ALGORITHMS = {
    "tsqr": lambda A: tsqr_qr(A, policy=ExecutionPolicy(block_rows=64)),
    "caqr": lambda A: caqr_qr(A, policy=ExecutionPolicy(panel_width=8, block_rows=32)),
    "blocked_hh": lambda A: blocked_qr(A, nb=8),
    "givens": givens_qr,
    "mgs": modified_gram_schmidt,
    "cgs": classical_gram_schmidt,
    "cholqr": cholesky_qr,
}


def make_conditioned(m: int, n: int, cond: float, seed: int = 0) -> np.ndarray:
    """Random matrix with geometrically spaced singular values 1 .. 1/cond."""
    rng = np.random.default_rng(seed)
    U, _, Vt = np.linalg.svd(rng.standard_normal((m, n)), full_matrices=False)
    s = np.logspace(0.0, -np.log10(cond), n)
    return (U * s) @ Vt


@dataclass(frozen=True)
class StabilityRow:
    cond: float
    errors: dict[str, float]  # algorithm -> ||QtQ - I|| (inf = breakdown)


def run(
    conds: tuple[float, ...] = (1e1, 1e4, 1e7, 1e10, 1e13),
    m: int = 400,
    n: int = 16,
    dtype=np.float64,
) -> list[StabilityRow]:
    rows = []
    for i, cond in enumerate(conds):
        A = make_conditioned(m, n, cond, seed=i).astype(dtype)
        errors = {}
        for name, fn in ALGORITHMS.items():
            try:
                Q, _ = fn(A)
                errors[name] = orthogonality_error(Q)
            except SingularTriangularError:
                errors[name] = float("inf")  # Cholesky breakdown
            except ValueError:
                errors[name] = float("inf")  # rank-deficiency abort (GS)
        rows.append(StabilityRow(cond=cond, errors=errors))
    return rows


def format_results(rows: list[StabilityRow], title: str | None = None) -> str:
    names = list(ALGORITHMS)
    body = []
    for r in rows:
        body.append(
            [f"{r.cond:.0e}"]
            + [("breakdown" if np.isinf(r.errors[n]) else f"{r.errors[n]:.1e}") for n in names]
        )
    return format_table(
        ["cond(A)"] + names,
        body,
        title=title or "Loss of orthogonality ||Q^T Q - I|| vs condition number",
    )
