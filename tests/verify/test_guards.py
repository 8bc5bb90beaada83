"""The single validation policy, demonstrated at every public entry point.

Complex input raises ``TypeError``; non-finite input raises ``ValueError``
by default with a ``nonfinite="propagate"`` escape hatch; int inputs
normalize to float64 and float32 is preserved.  These are the PR's two
headline bugfixes: previously complex inputs were silently truncated to
their real part (a ``ComplexWarning`` at best) and NaN/Inf flowed through
to plausible-looking garbage factors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.caqr_gpu import caqr_gpu_factor
from repro.core.blocked import blocked_qr
from repro.core.caqr import caqr, caqr_qr
from repro.core.cholesky_qr import cholesky_qr
from repro.core.gram_schmidt import cgs2
from repro.core.randomized_svd import randomized_svd
from repro.core.tsqr import tsqr_qr
from repro.dispatch import QRDispatcher
from repro.rpca.adaptive import AdaptiveSVT
from repro.runtime import ExecutionPolicy
from repro.verify.guards import GuardError, validate_matrix, validate_nonfinite_policy

# Every public entry point, normalized to a callable taking one matrix.
ENTRY_POINTS = {
    "caqr_qr": lambda A: caqr_qr(A),
    "tsqr_qr": lambda A: tsqr_qr(A),
    "blocked_qr": lambda A: blocked_qr(A),
    # The look-ahead path's entry: caqr on a lookahead policy.
    "caqr_lookahead": lambda A: caqr(A, policy=ExecutionPolicy(path="lookahead")),
    "caqr_gpu_factor": lambda A: caqr_gpu_factor(A),
    "dispatcher": lambda A: QRDispatcher().qr(A),
    "randomized_svd": lambda A: randomized_svd(A, k=2),
    "adaptive_svt": lambda A: AdaptiveSVT()(A, tau=0.1),
    "cholesky_qr": lambda A: cholesky_qr(A),
    "cgs2": lambda A: cgs2(A),
}


@pytest.fixture(params=list(ENTRY_POINTS))
def entry_point(request):
    return ENTRY_POINTS[request.param]


class TestComplexRejection:
    def test_every_entry_point_raises_type_error(self, rng, entry_point):
        A = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        with pytest.raises(TypeError, match="complex"):
            entry_point(A)

    def test_complex_dtype_with_zero_imaginary_still_rejected(self, rng):
        # The dtype is the contract; a zero imaginary part is still a bug
        # waiting to happen upstream.
        A = rng.standard_normal((16, 3)).astype(np.complex128)
        with pytest.raises(TypeError, match="complex"):
            caqr_qr(A)

    def test_as_float_array_is_the_chokepoint(self, rng):
        from repro.core.dtypes import as_float_array

        with pytest.raises(TypeError, match="complex"):
            as_float_array(np.array([1 + 2j, 3 + 4j]))


class TestNonFiniteGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_raises_value_error(self, rng, entry_point, bad):
        A = rng.standard_normal((32, 4))
        A[7, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            entry_point(A)

    def test_error_message_locates_first_bad_entry(self, rng):
        A = rng.standard_normal((32, 4))
        A[7, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(7, 2\)"):
            caqr_qr(A)

    def test_error_message_mentions_escape_hatch(self, rng):
        A = rng.standard_normal((8, 2))
        A[0, 0] = np.inf
        with pytest.raises(ValueError, match="propagate"):
            tsqr_qr(A)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_propagate_opt_in(self, rng):
        A = rng.standard_normal((64, 8))
        A[17, 3] = np.nan
        Q, R = caqr_qr(A, policy=ExecutionPolicy(nonfinite="propagate"))
        assert not np.isfinite(Q).all() or not np.isfinite(R).all()

    def test_dispatcher_propagate_is_constructor_state(self, rng):
        A = rng.standard_normal((64, 8))
        A[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            QRDispatcher().qr(A)
        res = QRDispatcher(policy=ExecutionPolicy(nonfinite="propagate")).qr(A)
        assert not np.isfinite(res.R).all()

    def test_unknown_policy_is_guard_error(self):
        with pytest.raises(GuardError, match="nonfinite"):
            validate_nonfinite_policy("explode")
        with pytest.raises(GuardError):
            ExecutionPolicy(nonfinite="explode")


class TestNormalization:
    def test_int_input_becomes_float64(self):
        A = validate_matrix(np.arange(12).reshape(4, 3), where="t")
        assert A.dtype == np.float64

    def test_float32_preserved(self, rng):
        A = validate_matrix(rng.standard_normal((8, 3)).astype(np.float32), where="t")
        assert A.dtype == np.float32

    def test_dtype_pin_overrides(self, rng):
        A = validate_matrix(
            rng.standard_normal((8, 3)).astype(np.float32), where="t", dtype=np.float64
        )
        assert A.dtype == np.float64

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            validate_matrix(np.zeros(5), where="t")
        with pytest.raises(ValueError):
            validate_matrix(np.zeros((2, 2, 2)), where="t")

    def test_int_matrix_factors_end_to_end(self):
        A = np.arange(1, 33).reshape(8, 4)
        Q, R = caqr_qr(A, policy=ExecutionPolicy(panel_width=2, block_rows=4))
        assert Q.dtype == np.float64
        assert np.allclose(Q @ R, A.astype(np.float64))

    def test_where_tag_appears_in_errors(self, rng):
        A = rng.standard_normal((4, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="cholesky_qr"):
            cholesky_qr(A)


def _whole_matrix_message(A: np.ndarray, where: str) -> str:
    """The guard's message as a whole-matrix mask computes it (the reference)."""
    bad = np.argwhere(~np.isfinite(A))
    idx = tuple(int(x) for x in bad[0])
    kind = "nan" if np.isnan(A[idx]) else "inf"
    return (
        f"{where}: input contains {bad.shape[0]} non-finite entr"
        f"{'y' if bad.shape[0] == 1 else 'ies'}; first is {kind} at index {idx}. "
        "Pass nonfinite='propagate' to skip this check."
    )


class TestChunkedScan:
    """The non-finite scan reads row chunks of about 256 KiB: no m x n
    mask, and the same message as a whole-matrix scan."""

    def test_traced_peak_under_a_mebibyte(self, rng):
        import tracemalloc

        A = rng.standard_normal((65536, 64))
        tracemalloc.start()
        try:
            validate_matrix(A, where="t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"scan peak {peak} bytes"

    # 20000 x 40 float64: 819 rows per chunk.
    PLANTS = {
        "first_row": [(0, 5, np.nan)],
        "last_row": [(19999, 39, np.inf)],
        "middle_chunk": [(10 * 819 + 17, 9, -np.inf)],
        "chunk_edges": [(818, 39, np.inf), (819, 0, np.nan)],
        "several_chunks": [(19000, 1, np.nan), (300, 30, -np.inf), (5000, 0, np.inf),
                           (300, 2, np.nan)],
    }

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("plant", list(PLANTS))
    def test_message_equals_whole_matrix_scan(self, rng, plant, order):
        A = rng.standard_normal((20000, 40))
        for i, j, value in self.PLANTS[plant]:
            A[i, j] = value
        if order == "F":
            A = np.asfortranarray(A)
        elif order == "strided":
            buf = np.zeros((40000, 80))
            buf[::2, ::2] = A
            A = buf[::2, ::2]
        with pytest.raises(ValueError) as err:
            validate_matrix(A, where="QRPlan.execute")
        assert str(err.value) == _whole_matrix_message(A, "QRPlan.execute")

    def test_fortran_order_scans_columns_and_locates_the_nan(self, rng, monkeypatch):
        """An F-ordered input is scanned in memory order, a contiguous chunk
        of whole columns at a time, and a NaN is still reported at its
        (row, col)."""
        A = np.asfortranarray(rng.standard_normal((65536, 64)))
        real, chunks = np.isfinite, []

        def spy(x, *args, **kwargs):
            chunks.append((x.shape, x.flags.c_contiguous))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        assert validate_matrix(A, where="t") is A
        # 512 KiB columns: one per 256 KiB chunk, read in memory order.
        assert chunks == [((1, 65536), True)] * 64
        A[40000, 37] = np.nan
        with pytest.raises(ValueError, match=r"first is nan at index \(40000, 37\)"):
            validate_matrix(A, where="t")

    @pytest.mark.parametrize("shape", [(3, 50000), (1, 7), (7, 1)])
    def test_rows_wider_than_a_chunk(self, rng, shape):
        A = rng.standard_normal(shape).astype(np.float32)
        A[-1, -1] = np.nan
        A[0, -1] = np.inf
        with pytest.raises(ValueError) as err:
            validate_matrix(A, where="t")
        assert str(err.value) == _whole_matrix_message(A, "t")
        A[...] = 1.0
        assert validate_matrix(A, where="t") is A
