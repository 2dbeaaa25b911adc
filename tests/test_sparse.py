import ast
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import pdhg_lp as pl

from pdhg_lp import sparse as sparse_module
from pdhg_lp import (
    DimensionMismatch,
    NonFiniteData,
    SparseMatrix,
    spectral_norm_estimate,
)

from conftest import random_feasible_lp


class TestMatvec:
    def test_matches_dense_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, 12))
            dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
            mat = SparseMatrix(dense, shape=(m, n))
            v = rng.standard_normal(n)
            w = rng.standard_normal(m)
            np.testing.assert_allclose(mat.matvec(v), dense @ v, atol=1e-13)
            np.testing.assert_allclose(mat.rmatvec(w), dense.T @ w, atol=1e-13)

    def test_bit_identical_to_scipy_products(self):
        # K^T w is compared with two references: scipy's own ``csr.T @ w``
        # and a row gather over an explicitly stored CSR transpose, the
        # layout that kept a second copy of every matrix
        rng = np.random.default_rng(7)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 30), (30, 1)]
        shapes += [(int(rng.integers(0, 40)), int(rng.integers(0, 40))) for _ in range(60)]
        for m, n in shapes:
            dense = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 8, (m, n))
            dense *= rng.random((m, n)) < rng.uniform(0.05, 0.9)
            if m > 2 and n > 2:
                dense[int(rng.integers(m))] = 0.0  # an empty row
                dense[:, int(rng.integers(n))] = 0.0  # an empty column
            mat = SparseMatrix(dense, shape=(m, n))
            csr = mat.tocsr()
            v = rng.standard_normal(n)
            w = rng.standard_normal(m)
            assert mat.matvec(v).tobytes() == (csr @ v).tobytes()
            assert mat.rmatvec(w).tobytes() == (csr.T @ w).tobytes()
            gathered = (csr.T.tocsr() @ w).tobytes()
            assert mat.rmatvec(w).tobytes() == gathered
            # strided input goes through the same kernels
            v2 = np.repeat(v, 2)[::2]
            assert mat.matvec(v2).tobytes() == (csr @ v).tobytes()
            w2 = np.repeat(w, 2)[::2]
            assert mat.rmatvec(w2).tobytes() == gathered

    def test_rmatvec_bit_identical_to_transposed_gather_on_long_columns(self):
        # columns with hundreds of entries of mixed magnitude, where the
        # order of the additions shows in the last bits
        rng = np.random.default_rng(8)
        csr = sp.random(300, 200, density=0.6, random_state=3, format="csr")
        csr.data = rng.standard_normal(csr.nnz) * 10.0 ** rng.uniform(-6, 6, csr.nnz)
        mat = SparseMatrix(csr)
        for _ in range(5):
            w = rng.standard_normal(300) * 10.0 ** rng.uniform(-6, 6, 300)
            assert mat.rmatvec(w).tobytes() == (mat.tocsr().T.tocsr() @ w).tobytes()

    def test_empty_rows_and_columns(self):
        dense = np.zeros((3, 4))
        dense[1, 2] = 5.0
        mat = SparseMatrix(dense, shape=(3, 4))
        np.testing.assert_array_equal(mat.matvec(np.ones(4)), [0.0, 5.0, 0.0])
        assert mat.nnz == 1

    def test_duplicate_entries_are_summed(self):
        mat = SparseMatrix(
            ([1.0, 2.0, -1.5], ([0, 0, 1], [1, 1, 0])), shape=(2, 2)
        )
        expected = np.array([[0.0, 3.0], [-1.5, 0.0]])
        np.testing.assert_array_equal(mat.toarray(), expected)
        assert mat.nnz == 2

    def test_dimension_mismatch_raised(self):
        mat = SparseMatrix(np.eye(3), shape=(3, 3))
        with pytest.raises(DimensionMismatch):
            mat.matvec(np.ones(4))
        with pytest.raises(DimensionMismatch):
            mat.rmatvec(np.ones(2))

    def test_non_finite_entries_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 2.0]])
        with pytest.raises(NonFiniteData):
            SparseMatrix(bad, shape=(2, 2))

    def test_call_counters(self):
        mat = SparseMatrix(np.eye(2), shape=(2, 2))
        assert mat.matvec_calls == 0 and mat.rmatvec_calls == 0
        mat.matvec(np.ones(2))
        mat.matvec(np.ones(2))
        mat.rmatvec(np.ones(2))
        assert mat.matvec_calls == 2
        assert mat.rmatvec_calls == 1


class TestNormsAndScaling:
    def test_row_and_col_abs_max(self):
        dense = np.array([[1.0, -4.0, 0.0], [0.0, 2.0, -3.0]])
        mat = SparseMatrix(dense, shape=(2, 3))
        magnitudes = np.abs(mat.toarray())
        np.testing.assert_array_equal(magnitudes.max(axis=1), [4.0, 3.0])
        np.testing.assert_array_equal(magnitudes.max(axis=0), [1.0, 4.0, 3.0])
        assert mat.abs_max() == 4.0

    def test_scaled_matches_dense(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((4, 5))
        mat = SparseMatrix(dense, shape=(4, 5))
        r = rng.uniform(0.5, 2.0, 4)
        c = rng.uniform(0.5, 2.0, 5)
        scaled = mat.scaled(r, c)
        np.testing.assert_allclose(
            scaled.toarray(), np.diag(r) @ dense @ np.diag(c), atol=1e-14
        )

    def test_scaled_gathers_rows_by_the_order(self):
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((6, 5)) * (rng.random((6, 5)) < 0.5)
        mat = SparseMatrix(dense, shape=(6, 5))
        r, c = rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 5)
        order = rng.permutation(6)
        plain = mat.scaled(r, c)
        working = mat.scaled(r, c, order)
        np.testing.assert_array_equal(working.toarray(), plain.toarray()[order])
        np.testing.assert_array_equal(working.row_lengths(), plain.row_lengths()[order])
        with pytest.raises(DimensionMismatch):
            mat.scaled(r, c, order[:5])

    @pytest.mark.parametrize(
        "order", [[0, 0, 2], [0, 1, 5], [2, 1, -1], [0, 1], [[0, 1, 2]], [0.9, 1.5, 2.2], [2.7, 1.2, 0.5]]
    )
    def test_scaled_rejects_an_order_that_is_not_a_permutation(self, order):
        # a repeated row, an index past either end, a wrong shape and a float
        # order, which a cast would truncate to a permutation, raise the
        # shape check's error, as ScalingInfo does for the same order
        mat = SparseMatrix(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]), shape=(3, 2))
        with pytest.raises(DimensionMismatch, match="not a permutation of the 3 rows"):
            mat.scaled(np.ones(3), np.ones(2), order)
        with pytest.raises(DimensionMismatch, match="not a permutation of the 3 rows"):
            pl.ScalingInfo(np.ones(3), np.ones(2), order)

    def test_scaled_drops_entries_that_underflow_and_rejects_overflow(self):
        mat = SparseMatrix(np.array([[1e-300, 1.0], [2.0, 1e300]]), shape=(2, 2))
        tiny = mat.scaled([1e-300, 1.0], [1.0, 1.0], [1, 0])
        assert tiny.nnz == 3
        np.testing.assert_array_equal(tiny.toarray(), [[2.0, 1e300], [0.0, 1e-300]])
        with pytest.raises(NonFiniteData):
            mat.scaled([1.0, 1e10], [1.0, 1.0], [1, 0])

    def test_vstack_matches_dense(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 4))
        stacked = SparseMatrix.vstack(
            [SparseMatrix(a, shape=(2, 4)), SparseMatrix(b, shape=(3, 4))]
        )
        np.testing.assert_array_equal(stacked.toarray(), np.vstack([a, b]))

    def test_eye_and_empty(self):
        assert SparseMatrix(sp.eye(3)).nnz == 3
        empty = SparseMatrix.empty((0, 5))
        assert empty.shape == (0, 5)
        assert empty.matvec(np.ones(5)).shape == (0,)


class TestSpectralNorm:
    def test_diagonal_matrix_exact(self):
        # largest singular value of diag(3, 4) is 4
        mat = SparseMatrix(np.diag([3.0, 4.0]), shape=(2, 2))
        est = spectral_norm_estimate(mat, tol=1e-10)
        assert est.converged
        assert abs(est.value - 4.0) < 1e-6

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(2, 30))
            n = int(rng.integers(2, 30))
            dense = rng.standard_normal((m, n))
            mat = SparseMatrix(dense, shape=(m, n))
            exact = np.linalg.svd(dense, compute_uv=False)[0]
            est = spectral_norm_estimate(mat, tol=1e-8)
            assert abs(est.value - exact) / exact < 1e-4

    def test_zero_matrix(self):
        est = spectral_norm_estimate(SparseMatrix.empty((3, 3)))
        assert est.value == 0.0
        assert est.converged

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((8, 8))
        mat = SparseMatrix(dense, shape=(8, 8))
        a = spectral_norm_estimate(mat, seed=0).value
        b = spectral_norm_estimate(mat, seed=0).value
        assert a == b

    def test_clustered_top_singular_values(self):
        # sigma_1 = 1 and sigma_2 = 0.9979: a power iteration stopped when two
        # estimates agree to 1e-4 returned 0.99098 here
        n = 400
        sigma = 1.0 - 0.03 * np.linspace(0.0, 2.0, n) ** 0.5
        est = spectral_norm_estimate(SparseMatrix(np.diag(sigma)), tol=1e-6)
        assert est.converged
        assert abs(est.value - 1.0) <= 1e-6

    def test_top_singular_value_in_a_zero_row_sum_block(self):
        # block diagonal: an even cycle of differences x_i - x_{i+1}, whose
        # rows and columns sum to zero and whose norm is 2, beside a diagonal
        # of norm 1.5; M^T M 1 is 0 on the cycle block, so a Lanczos run
        # from the ones vector converged to 1.5
        cycle = sp.diags([np.ones(100), -np.ones(99), [-1.0]], [0, 1, -99])
        mat = SparseMatrix(sp.block_diag([cycle, sp.diags(np.linspace(0.5, 1.5, 50))]))
        for seed in range(3):
            est = spectral_norm_estimate(mat, tol=1e-6, seed=seed)
            assert est.converged
            assert abs(est.value - 2.0) <= 1e-6

    def test_single_row_or_column_in_one_step(self):
        # the normal operator is 1 x 1: one Lanczos step spans its space,
        # and the residual test stops there
        rng = np.random.default_rng(12)
        for shape in ((40, 1), (1, 40)):
            dense = rng.standard_normal(shape)
            mat = SparseMatrix(dense, shape=dense.shape)
            est = spectral_norm_estimate(mat)
            assert (est.converged, est.iterations) == (True, 1)
            assert est.value == pytest.approx(np.linalg.norm(dense, 2), rel=1e-14)
            assert mat.matvec_calls == mat.rmatvec_calls == 1

    def test_matches_dense_norm_at_the_solver_tolerance(self):
        rng = np.random.default_rng(14)
        shapes = [(1, 25), (25, 1), (2, 2), (3, 40), (40, 3)]
        shapes += [tuple(int(d) for d in rng.integers(2, 60, size=2)) for _ in range(20)]
        for shape in shapes:
            dense = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
            if not dense.any():
                continue
            exact = np.linalg.norm(dense, 2)
            est = spectral_norm_estimate(SparseMatrix(dense, shape=shape), tol=1e-6)
            assert est.converged
            assert abs(est.value - exact) <= 1e-6 * exact

    @pytest.mark.parametrize("stop", ["max_iters", "deadline"])
    def test_stop_returns_a_lower_bound(self, stop, monkeypatch):
        # the largest ||M v|| over the unit Lanczos vectors seen: at most the norm
        n = 400
        sigma = 1.0 - 0.03 * np.linspace(0.0, 2.0, n) ** 0.5
        mat = SparseMatrix(sp.diags(sigma) @ sp.random(n, n, density=0.02, random_state=3) + sp.eye(n))
        exact = np.linalg.norm(mat.toarray(), 2)
        full = spectral_norm_estimate(mat, tol=1e-12)
        assert full.iterations > 5
        if stop == "max_iters":
            est = spectral_norm_estimate(mat, tol=1e-12, max_iters=5)
        else:
            # a clock that ticks once a reading passes the deadline after five products
            ticks = iter(range(10**6))
            monkeypatch.setattr(sparse_module, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
            est = spectral_norm_estimate(mat, tol=1e-12, deadline=4.5)
        assert (est.converged, est.iterations) == (False, 5)
        assert 0.0 < est.value <= exact

    def test_either_normal_operator(self):
        # the Lanczos run takes M^T M or M M^T, whichever is smaller
        rng = np.random.default_rng(13)
        for shape in ((30, 90), (90, 30)):
            dense = rng.standard_normal(shape)
            est = spectral_norm_estimate(SparseMatrix(dense, shape=shape), tol=1e-10)
            assert est.converged
            assert abs(est.value - np.linalg.norm(dense, 2)) <= 1e-8 * est.value

    def test_iteration_budget_reported(self):
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((20, 20))
        mat = SparseMatrix(dense, shape=(20, 20))
        est = spectral_norm_estimate(mat, tol=1e-15, max_iters=3)
        assert not est.converged
        assert est.iterations == 3

    def test_deadline(self):
        rng = np.random.default_rng(9)
        mat = SparseMatrix(rng.standard_normal((20, 20)), shape=(20, 20))
        free = spectral_norm_estimate(mat, tol=1e-8)
        # a deadline that does not bind leaves the estimate's bits alone
        late = spectral_norm_estimate(mat, tol=1e-8, deadline=time.perf_counter() + 3600.0)
        assert (late.value.hex(), late.converged, late.iterations) == (
            free.value.hex(), free.converged, free.iterations
        )
        # one already past stops the iteration before its first product
        calls = mat.matvec_calls
        past = spectral_norm_estimate(mat, tol=1e-8, deadline=time.perf_counter())
        assert (past.value, past.converged, past.iterations) == (0.0, False, 0)
        assert mat.matvec_calls == calls

    def test_past_deadline_skips_the_lapack_import(self):
        # In a fresh process loading the Lanczos steps' LAPACK module takes
        # about 10 ms, which an estimate out of time before its first
        # product does not pay.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import pdhg_lp as pl\n"
            "est = pl.spectral_norm_estimate(pl.SparseMatrix(np.eye(3)), deadline=0.0)\n"
            "assert (est.value, est.converged, est.iterations) == (0.0, False, 0), est\n"
            "assert 'scipy.linalg.lapack' not in sys.modules, 'imported'\n"
            "assert 'scipy.linalg._flapack' not in sys.modules, 'loaded'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pl.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: spectral_norm_estimate(m, max_iters=-3), r"^max_iters must be an integer >= 1, got -3$"),
        (lambda m: spectral_norm_estimate(m, max_iters=0), r"^max_iters must be an integer >= 1, got 0$"),
        (lambda m: spectral_norm_estimate(m, max_iters=2.5), r"^max_iters must be an integer >= 1, got 2\.5$"),
        (lambda m: spectral_norm_estimate(m, max_iters=True), r"^max_iters must be an integer >= 1, got True$"),
        (lambda m: spectral_norm_estimate(m, tol=float("nan")), r"^tol must be a finite real >= 0, got nan$"),
        (lambda m: spectral_norm_estimate(m, tol=-1.0), r"^tol must be a finite real >= 0, got -1\.0$"),
        (lambda m: spectral_norm_estimate(m, tol=float("inf")), r"^tol must be a finite real >= 0, got inf$"),
        (lambda m: spectral_norm_estimate(m, tol=True), r"^tol must be a real number, got True$"),
        (lambda m: pl.ruiz_rescale(m, num_iters=True), r"^num_iters must be an integer >= 0, got True$"),
        (lambda m: pl.ruiz_rescale(m, num_iters=2.5), r"^num_iters must be an integer >= 0, got 2\.5$"),
    ],
)
def test_count_and_tolerance_arguments_follow_the_number_rule(call, message):
    # the rule of the config's numbers: a count is an integer, not a bool or
    # a float, and a tolerance a finite real >= 0; checked before any product
    mat = SparseMatrix(np.diag([3.0, 4.0]), shape=(2, 2))
    with pytest.raises(pl.NonPositiveInput, match=message):
        call(mat)
    assert mat.matvec_calls == mat.rmatvec_calls == 0


class TestStorage:
    def test_one_copy_of_the_csr_arrays(self):
        # the matrix keeps its CSR arrays once: no transposed copy
        csr = sp.random(2000, 2000, density=0.05, random_state=1, format="csr")
        tracemalloc.start()
        try:
            mat = SparseMatrix(csr)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = mat.tocsr()
        assert own.nnz >= 190_000
        arrays = own.data.nbytes + own.indices.nbytes + own.indptr.nbytes
        assert kept <= 1.15 * arrays


    def test_scaled_matrix_built_in_one_copy(self):
        # the scaled, reordered matrix costs little more than its own arrays
        csr = sp.random(2000, 2000, density=0.05, random_state=2, format="csr")
        mat = SparseMatrix(csr)
        rng = np.random.default_rng(2)
        r, c, order = rng.uniform(0.5, 2.0, 2000), rng.uniform(0.5, 2.0, 2000), rng.permutation(2000)
        tracemalloc.start()
        try:
            out = mat.scaled(r, c, order)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = out.tocsr()
        arrays = own.data.nbytes + own.indices.nbytes + own.indptr.nbytes
        assert kept <= 1.15 * arrays
        assert peak <= 2.5 * arrays

    def test_row_blocks_are_views_that_split_the_nonzeros(self):
        # from SPLIT_MIN_NNZ on, two blocks of about half the nonzeros each,
        # over the matrix's own arrays; their products add up to K x and K'y
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec

        csr = sp.random(1500, 1200, density=0.12, random_state=3, format="csr")
        mat = SparseMatrix(csr)
        assert mat.nnz >= pl.sparse.SPLIT_MIN_NNZ
        blocks = mat.row_blocks()
        assert blocks is mat.row_blocks()
        (first, ptr0, idx0, data0), (second, ptr1, idx1, data1) = blocks
        assert (first.start, first.stop, second.start, second.stop) == (0, second.start, first.stop, 1500)
        assert abs(int(ptr0[-1]) - mat.nnz // 2) <= int(np.diff(mat.indptr).max())
        for view, array in ((ptr0, mat.indptr), (ptr1, mat.indptr), (idx0, mat.indices), (data1, mat.data)):
            assert np.shares_memory(view, array)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(1200), rng.standard_normal(1500)
        kx, kty = np.zeros(1500), np.zeros((2, 1200))
        for (rows, ptr, idx, data), part in zip(blocks, kty):
            csr_matvec(rows.stop - rows.start, 1200, ptr, idx, data, x, kx[rows])
            csc_matvec(1200, rows.stop - rows.start, ptr, idx, data, y[rows], part)
        assert kx.tobytes() == mat.matvec(x).tobytes()
        np.testing.assert_allclose(kty[0] + kty[1], mat.rmatvec(y), rtol=1e-12, atol=1e-12)

    def test_row_blocks_weigh_rows(self):
        # long rows first: weighing rows as well as nonzeros moves the split
        # later, to where nonzeros plus the weight per row fall in half
        lengths = np.linspace(400, 10, 1500).astype(int)
        rows = np.repeat(np.arange(1500), lengths)
        cols = np.concatenate([np.arange(k) for k in lengths])
        mat = SparseMatrix(sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(1500, 400)))
        assert mat.nnz >= pl.sparse.SPLIT_MIN_NNZ
        weight = pl.sparse.ROW_WEIGHT
        [(plain, _, _, _), _] = mat.row_blocks()
        (first, ptr0, _, _), (second, ptr1, _, _) = mat.row_blocks(weight)
        assert mat.row_blocks(weight) is mat.row_blocks(weight)
        assert plain.stop < first.stop == second.start
        costs = [int(ptr[-1] - ptr[0]) + weight * (r.stop - r.start) for r, ptr in ((first, ptr0), (second, ptr1))]
        assert abs(costs[0] - costs[1]) <= 2 * (400 + weight)

    def test_one_row_block_below_the_floor(self):
        mat = SparseMatrix(sp.random(300, 200, density=0.1, random_state=4, format="csr"))
        [(rows, ptr, _, _)] = mat.row_blocks()
        assert (rows.start, rows.stop) == (0, 300) and ptr.size == 301


def canonical_scipy(matrix, shape=None):
    """scipy's CSR of ``matrix`` as float64, brought to canonical form."""
    csr = sp.csr_matrix(matrix, shape=shape, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def _messy_csr():
    """A CSR with unsorted indices, a duplicate and an explicit zero."""
    data = np.array([3.0, 1.0, 0.1, 0.2, 0.0, 5.0, -2.0])
    indices = np.array([2, 0, 1, 1, 3, 0, 3], dtype=np.int32)
    indptr = np.array([0, 2, 5, 5, 7], dtype=np.int32)
    return data, indices, indptr


def _int64_csr():
    """The messy CSR as a scipy matrix whose index arrays are int64."""
    csr = sp.csr_matrix(_messy_csr(), shape=(4, 4))
    csr.indices, csr.indptr = csr.indices.astype(np.int64), csr.indptr.astype(np.int64)
    return csr


_DENSE = np.array([[0.0, 1.5, 0.0, -2.0], [0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 1e-300, 0.0]])


class TestInputForms:
    """Each form a SparseMatrix takes gives the arrays, dtypes included, of
    scipy's csr_matrix after sum_duplicates, eliminate_zeros and
    sort_indices; only the forms that only scipy reads go through it."""

    @pytest.mark.parametrize(
        "form, shape",
        [
            (lambda: _DENSE, None),
            (lambda: _DENSE, (3, 4)),
            (lambda: _DENSE.tolist(), None),
            (lambda: np.array([0.0, 2.0, 0.0, 4.0]), None),
            (lambda: (_DENSE * 10).astype(np.int64), None),
            (lambda: _DENSE > 0, None),
            (lambda: sp.csr_matrix(_messy_csr(), shape=(4, 4)), None),
            (lambda: sp.csr_array(_messy_csr(), shape=(4, 4)), None),
            (_int64_csr, None),
            (lambda: _messy_csr(), (4, 4)),
            (lambda: sp.coo_matrix(([1.0, 2.0, 0.5, 0.0], ([2, 0, 2, 1], [1, 3, 1, 0])), shape=(3, 4)), None),
            (lambda: ([1.0, 2.0, 0.5, 0.0], ([2, 0, 2, 1], [1, 3, 1, 0])), (3, 4)),
            (lambda: sp.csr_matrix(np.array([[0, 3, 0], [7, 0, -1]], dtype=np.int32)), None),
            (lambda: sp.csc_matrix(_DENSE), None),
            (lambda: (5, 2), None),
        ],
    )
    def test_same_arrays_as_scipy(self, form, shape):
        mat = SparseMatrix(form(), shape=shape)
        reference = canonical_scipy(form(), shape=shape)
        assert mat.shape == reference.shape and mat.nnz == reference.nnz
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(mat, name), getattr(reference, name)
            assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes()), name

    def test_a_sparse_matrix_keeps_its_arrays(self):
        inner = SparseMatrix(sp.csr_matrix(_messy_csr(), shape=(4, 4)))
        outer = SparseMatrix(inner)
        assert (outer.indptr, outer.indices, outer.data) == (inner.indptr, inner.indices, inner.data)
        assert outer.shape == inner.shape and outer.matvec_calls == 0

    def test_the_input_is_left_as_it_is(self):
        data, indices, indptr = _messy_csr()
        csr = sp.csr_matrix((data, indices, indptr), shape=(4, 4))
        SparseMatrix(csr)
        assert csr.data.tobytes() == _messy_csr()[0].tobytes()
        assert csr.indices.tobytes() == _messy_csr()[1].tobytes()

    def test_to_csr_and_to_array(self):
        mat = SparseMatrix(_DENSE)
        copy = mat.tocsr()
        assert sp.isspmatrix_csr(copy) and not np.shares_memory(copy.data, mat.data)
        np.testing.assert_array_equal(copy.toarray(), _DENSE)
        assert mat.toarray().tobytes() == _DENSE.tobytes()

    def test_from_coo_rejects_an_entry_outside_the_shape(self):
        rows, cols = np.array([0, 2]), np.array([1, 1])
        with pytest.raises(DimensionMismatch):
            SparseMatrix._from_coo(rows, cols, np.ones(2), (2, 2))


class TestTwoThreadProducts:
    """With two row blocks K x writes each block's rows on its own thread,
    the bits of one scipy call, and K'y sums the blocks' parts.  Neither
    depends on whether the worker runs a half or the caller runs both.  The
    CI runs these tests under ``taskset -c 0`` too, where ``_worker`` itself
    returns None."""

    @staticmethod
    def matrix(kind, monkeypatch):
        if kind == "floor_at_1":
            monkeypatch.setattr(sparse_module, "SPLIT_MIN_NNZ", 1)
            csr = sp.random(90, 70, density=0.3, random_state=11, format="csr")
        else:
            csr = sp.random(1500, 1200, density=0.12, random_state=3, format="csr")
        rng = np.random.default_rng(12)
        csr.data = rng.standard_normal(csr.nnz) * 10.0 ** rng.uniform(-4, 4, csr.nnz)
        mat = SparseMatrix(csr)
        assert len(mat.row_blocks()) == 2
        return mat

    @pytest.mark.parametrize("kind", ["floor_at_1", "above_the_floor"])
    def test_two_threads_products_match_scipy(self, kind, monkeypatch):
        mat = self.matrix(kind, monkeypatch)
        csr = mat.tocsr()
        rng = np.random.default_rng(13)
        for _ in range(3):
            x, y = rng.standard_normal(mat.shape[1]), rng.standard_normal(mat.shape[0])
            assert mat.matvec(x).tobytes() == (csr @ x).tobytes()
            kty = csr.T @ y
            np.testing.assert_allclose(mat.rmatvec(y), kty, rtol=1e-12, atol=1e-12 * np.abs(kty).max())
        assert mat.matvec_calls == mat.rmatvec_calls == 3

    @pytest.mark.parametrize("kind", ["floor_at_1", "above_the_floor"])
    def test_two_threads_match_the_caller_alone(self, kind, monkeypatch):
        mat = self.matrix(kind, monkeypatch)
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal(mat.shape[1]), rng.standard_normal(mat.shape[0])

        def run():
            est = spectral_norm_estimate(mat, tol=2e-3)
            return mat.matvec(x).tobytes(), mat.rmatvec(y).tobytes(), est.value.hex(), est.iterations

        workers, real = [], sparse_module._worker
        monkeypatch.setattr(sparse_module, "_worker", lambda: workers.append(real()) or workers[-1])
        threaded = run()
        # a product takes the worker once, or on one CPU gets None
        assert len(workers) == 2 + 2 * threaded[3]
        assert all(w is None for w in workers) if sparse_module._cpus() < 2 else None not in workers
        monkeypatch.setattr(sparse_module, "_worker", lambda: None)
        assert run() == threaded


    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("kind", ["floor_at_1", "above_the_floor"])
    def test_two_threads_scaled_keeps_the_entry_bits(self, kind, ordered, monkeypatch):
        # each entry is (r_i * c_j) * M_ij, with the worker forming one half
        # of the result's nonzeros or the caller both
        mat = self.matrix(kind, monkeypatch)
        rng = np.random.default_rng(15)
        r, c = 10.0 ** rng.uniform(-3, 3, mat.shape[0]), 10.0 ** rng.uniform(-3, 3, mat.shape[1])
        order = rng.permutation(mat.shape[0]) if ordered else None
        gathered = mat.tocsr()[order] if ordered else mat.tocsr()
        rows = r[order] if ordered else r
        expected = np.repeat(rows, np.diff(gathered.indptr)) * c[gathered.indices] * gathered.data
        threaded = mat.scaled(r, c, order).tocsr()
        monkeypatch.setattr(sparse_module, "_worker", lambda: None)
        caller = mat.scaled(r, c, order).tocsr()
        for scaled in (threaded, caller):
            assert scaled.data.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(scaled.indices, gathered.indices)
            np.testing.assert_array_equal(scaled.indptr, gathered.indptr)


class TestProductsOnTheParts:
    """``SparseMatrix.over``: the stacked matrix's products on its parts'
    own arrays, byte for byte, wherever its row split falls, with the worker
    thread or the caller alone."""

    # rows of G and of A (5 entries each), and whether the split floor is 1
    CASES = {
        "one_block": ((30, 20), False),
        "split_inside_G": ((40, 10), True),
        "split_at_the_boundary": ((20, 20), True),
        "split_inside_A": ((10, 40), True),
        "m1_zero": ((0, 30), True),
        "m2_zero": ((30, 0), True),
    }

    @staticmethod
    def parts(rows, n=60, seed=0):
        rng = np.random.default_rng(seed)
        parts = []
        for m in rows:
            dense = np.zeros((m, n))
            for i in range(m):
                cols = rng.choice(n, 5, replace=False)
                dense[i, cols] = rng.standard_normal(5) * 10.0 ** rng.uniform(-4, 4, 5)
            parts.append(SparseMatrix(dense, shape=(m, n)))
        return parts

    @pytest.mark.parametrize("case", CASES)
    def test_same_bytes_as_the_stacked_matrix(self, case, monkeypatch):
        rows, split = self.CASES[case]
        if split:
            monkeypatch.setattr(sparse_module, "SPLIT_MIN_NNZ", 1)
        parts = self.parts(rows)
        stacked = SparseMatrix.vstack(parts)
        blocks = stacked.row_blocks()
        assert len(blocks) == (2 if split else 1)
        middle = blocks[0][0].stop
        m1 = rows[0]
        if case == "split_inside_G":
            assert 0 < middle < m1
        elif case == "split_at_the_boundary":
            assert middle == m1
        elif case == "split_inside_A":
            assert middle > m1
        view = stacked.over(parts)
        assert (view.shape, view.nnz) == (stacked.shape, stacked.nnz)
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(stacked.shape[1]) for _ in range(3)]
        ys = [rng.standard_normal(stacked.shape[0]) for _ in range(3)]

        def products(matrix):
            return [matrix.matvec(x).tobytes() for x in xs] + [matrix.rmatvec(y).tobytes() for y in ys]

        expected = products(stacked)
        assert products(view) == expected
        monkeypatch.setattr(sparse_module, "_worker", lambda: None)
        assert products(view) == expected
        # the view counts its own products, and the stacked matrix keeps its count
        assert (view.matvec_calls, view.rmatvec_calls) == (6, 6)
        assert (stacked.matvec_calls, stacked.rmatvec_calls) == (3, 3)

    def test_holds_no_arrays_of_its_own(self):
        parts = self.parts((20, 10))
        view = SparseMatrix.vstack(parts).over(parts)
        for name in ("indptr", "indices", "data"):
            assert not hasattr(view, name)
        arrays = {id(a) for p in parts for a in (p.indptr, p.indices, p.data)}
        for half in view._product_halves():
            for _, indptr, indices, data in half:
                assert id(indices) in arrays and id(data) in arrays and indptr.base is not None

    def test_parts_that_do_not_stack_are_refused(self):
        parts = self.parts((20, 10))
        stacked = SparseMatrix.vstack(parts)
        for wrong in (parts[:1], [parts[0], self.parts((11,))[0]], [parts[0], parts[0]]):
            with pytest.raises(DimensionMismatch, match="do not stack"):
                stacked.over(wrong)


class TestWorkingSpaceProducts:
    """Products with the scaled K whose rows are gathered by an order."""

    @pytest.fixture(scope="class")
    def spaces(self):
        saddle = pl.to_saddle(pl.generate_pagerank(pl.PagerankSpec(num_nodes=2500)))
        order = pl.combined_rescale(saddle.K, m1=saddle.m1).row_order
        rng = np.random.default_rng(5)
        r, c = rng.uniform(0.5, 2.0, saddle.num_dual), rng.uniform(0.5, 2.0, saddle.num_primal)
        return saddle.K.scaled(r, c), saddle.K.scaled(r, c, order), order

    def test_matvec_is_the_original_matvec_permuted_bit_for_bit(self, spaces):
        plain, working, order = spaces
        assert order is not None
        rng = np.random.default_rng(6)
        for _ in range(3):
            x = rng.standard_normal(plain.shape[1])
            assert working.matvec(x).tobytes() == plain.matvec(x)[order].tobytes()

    def test_rmatvec_matches_the_original_rmatvec(self, spaces):
        # the column kernel sums each column in the new row order
        plain, working, order = spaces
        y = np.random.default_rng(7).standard_normal(plain.shape[0])
        np.testing.assert_allclose(working.rmatvec(y[order]), plain.rmatvec(y), rtol=1e-13, atol=1e-13)


class TestColumnKernelSolves:
    """Whole solves give the same bits whether K^T y comes from the column
    kernel or from a gather over a stored CSR transpose."""

    @pytest.mark.parametrize("step", ["adaptive", "fixed"])
    @pytest.mark.parametrize("instance", ["lp0", "lp1", "pagerank"])
    def test_same_report_as_transposed_gather(self, monkeypatch, instance, step):
        if instance == "pagerank":
            problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=2000))
        else:
            problem = random_feasible_lp(int(instance[-1]))
        if step == "adaptive":
            config = pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=20_000))
        else:
            # criterion 8's fixed step 0.9/||K|| with adaptive restarts
            config = pl.SolverConfig(
                termination=pl.TerminationCriteria(tol_optimal=1e-4, iteration_limit=20_000),
                step=pl.StepPolicy(mode="fixed"),
                weight=pl.WeightPolicy(mode="fixed"),
            )
        column = pl.solve(problem, config)

        transposes = {}

        def transposed_rmatvec(mat, y):
            mat.rmatvec_calls += 1
            if id(mat) not in transposes:
                # kept alive with its transpose, so that its id is not reused
                transposes[id(mat)] = (mat, mat.tocsr().T.tocsr())
            return transposes[id(mat)][1] @ np.asarray(y, dtype=np.float64)

        monkeypatch.setattr(SparseMatrix, "rmatvec", transposed_rmatvec)
        # the gather reads a matrix's own arrays, so the checks keep the
        # stacked K rather than take its products on G and A
        monkeypatch.setattr(SparseMatrix, "over", lambda mat, parts: mat)
        gathered = pl.solve(problem, config)
        assert column.status == gathered.status
        assert column.iterations == gathered.iterations
        assert column.matvecs == gathered.matvecs
        assert column.x.tobytes() == gathered.x.tobytes()
        assert column.y.tobytes() == gathered.y.tobytes()
        assert column.step_size.hex() == gathered.step_size.hex()


_PRIVATE_MODULES = ("scipy.sparse._", "numpy._core", "numpy.core")


def _private_uses(source):
    """The private numpy and scipy modules ``source`` imports and the
    places it names ``_worker``, as (line, what) pairs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules, names = [], []
        if isinstance(node, ast.ImportFrom):
            modules, names = [node.module or ""], [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        found += [(node.lineno, module) for module in modules if module.startswith(_PRIVATE_MODULES)]
        found += [(node.lineno, name) for name in names if name == "_worker"]
    return found


class TestOneOwnerOfTheRowBlocks:
    """``sparse.py`` alone runs K's row blocks on the worker thread and
    alone reaches into numpy's and scipy's private modules: every other
    module takes the kernels and the runner from it."""

    @pytest.mark.parametrize(
        "source",
        [
            "from scipy.sparse._sparsetools import csr_matvec",
            "import scipy.sparse._sparsetools",
            "from numpy._core.umath import clip",
            "from numpy.core.multiarray import c_einsum",
            "from .sparse import _worker",
            "pool = _worker()",
            "monkeypatch.setattr(sparse, '_worker', None) or sparse._worker",
        ],
    )
    def test_the_check_finds_each_kind_of_use(self, source):
        assert _private_uses(source)

    def test_only_sparse_py_uses_private_kernels_or_the_worker(self):
        package = Path(sparse_module.__file__).parent
        uses = {path.name: _private_uses(path.read_text()) for path in sorted(package.glob("*.py"))}
        assert uses.pop("sparse.py")  # the owner: otherwise the check finds nothing
        assert {name: found for name, found in uses.items() if found} == {}


def _scipy_imports(source):
    """The places ``source`` imports scipy, in any form: an import
    statement, ``importlib.import_module`` or ``__import__``, as (line,
    module) pairs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules = []
        if isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("import_module", "__import__") and isinstance(node.args[0].value, str):
                modules = [node.args[0].value]
        found += [(node.lineno, module) for module in modules if module.split(".")[0] == "scipy"]
    return found


class TestOneOwnerOfScipy:
    """``sparse.py`` alone imports scipy: every other module builds its
    matrices through ``SparseMatrix`` and takes scipy's kernels from it, so
    a process that imports the package loads no more of scipy than
    ``sparse.py`` asks for."""

    @pytest.mark.parametrize(
        "source",
        [
            "import scipy",
            "import scipy.sparse as sp",
            "from scipy import sparse",
            "from scipy.linalg.lapack import dstebz",
            "def f():\n    import scipy.optimize",
            "importlib.import_module('scipy.sparse._sparsetools')",
            "__import__('scipy')",
        ],
    )
    def test_the_check_finds_each_kind_of_import(self, source):
        assert _scipy_imports(source)

    def test_the_check_passes_other_imports(self):
        assert not _scipy_imports("import numpy\nfrom .sparse import SparseMatrix\nimport scipyish")

    def test_only_sparse_py_imports_scipy(self):
        package = Path(sparse_module.__file__).parent
        uses = {path.name: _scipy_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
        assert uses.pop("sparse.py")  # the owner: otherwise the check finds nothing
        assert {name: found for name, found in uses.items() if found} == {}
