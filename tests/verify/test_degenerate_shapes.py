"""Degenerate and awkward shapes through every execution path.

Each path must return exactly the ``np.linalg.qr(mode="reduced")`` shape
and dtype contract — 0-row, 0-column, scalar, wide, and panel widths
exceeding the matrix — for contiguous, Fortran-ordered and strided
inputs alike.  So must the per-node reference the other tests compare
against (:mod:`tests.reference_qr`), under the names ``seed`` and
``seed_structured``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caqr import caqr_qr
from repro.runtime import ExecutionPolicy
from repro.verify.fuzz import PATHS, policy_for
from repro.verify.invariants import check_qr, expected_qr_shapes
from tests import reference_qr

SHAPES = [(0, 5), (5, 0), (0, 0), (1, 1), (1, 4), (3, 7), (2, 2)]


# The per-node reference, by name: whether its tree merges are structured.
ORACLES = {"seed": False, "seed_structured": True}


@pytest.fixture(params=[*PATHS, *ORACLES])
def path_qr(request):
    """``(Q, R)`` on the fuzz path (or the reference), with per-test geometry."""
    name = request.param

    def qr(A, panel_width=16, block_rows=64):
        if name in ORACLES:
            return reference_qr.caqr_qr(
                A, panel_width=panel_width, block_rows=block_rows, structured=ORACLES[name]
            )
        return caqr_qr(A, policy=policy_for(name, panel_width=panel_width, block_rows=block_rows))

    return qr


@pytest.mark.parametrize("m,n", SHAPES)
def test_shapes_and_dtypes_match_numpy(rng, path_qr, m, n):
    A = rng.standard_normal((m, n))
    Qn, Rn = np.linalg.qr(A, mode="reduced")
    Q, R = path_qr(A, panel_width=2, block_rows=4)
    assert Q.shape == Qn.shape and R.shape == Rn.shape
    assert Q.dtype == Qn.dtype and R.dtype == Rn.dtype
    check_qr(A, Q, R)


@pytest.mark.parametrize("m,n", SHAPES)
def test_float32_degenerate_shapes(rng, path_qr, m, n):
    A = rng.standard_normal((m, n)).astype(np.float32)
    Q, R = path_qr(A, panel_width=2, block_rows=4)
    eq, er = expected_qr_shapes(m, n)
    assert Q.shape == eq and R.shape == er
    assert Q.dtype == np.float32 and R.dtype == np.float32


def test_wide_matrix_with_lookahead(rng):
    """m < n through the look-ahead driver (panels stop at min(m, n))."""
    A = rng.standard_normal((4, 19))
    policy = ExecutionPolicy(path="lookahead", panel_width=3, block_rows=4)
    Q, R = caqr_qr(A, policy=policy)
    assert Q.shape == (4, 4) and R.shape == (4, 19)
    check_qr(A, Q, R)


def test_panel_wider_than_matrix(rng, path_qr):
    A = rng.standard_normal((20, 3))
    Q, R = path_qr(A, panel_width=16, block_rows=8)
    assert Q.shape == (20, 3)
    check_qr(A, Q, R)


@pytest.mark.parametrize("order", ["F", "strided"])
def test_noncontiguous_layouts(rng, path_qr, order):
    A = rng.standard_normal((33, 7))
    if order == "F":
        V = np.asfortranarray(A)
    else:
        buf = np.zeros((67, 15))
        V = buf[0:66:2, 0:14:2]
        V[...] = A
    before = V.copy()
    Q, R = path_qr(V, panel_width=3, block_rows=8)
    check_qr(V, Q, R)
    # The entry point never mutates the caller's view.
    np.testing.assert_array_equal(V, before)


def test_empty_dimensions_give_empty_factors(path_qr):
    Q, R = path_qr(np.zeros((0, 5)))
    assert Q.shape == (0, 0) and R.shape == (0, 5)
    Q, R = path_qr(np.zeros((5, 0)))
    assert Q.shape == (5, 0) and R.shape == (0, 0)
