import numpy as np
import pytest

from pdhg_lp import (
    DimensionMismatch,
    NonFiniteData,
    SparseMatrix,
    spectral_norm_estimate,
)


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
        rng = np.random.default_rng(7)
        for _ in range(60):
            m = int(rng.integers(0, 40))
            n = int(rng.integers(0, 40))
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
            # strided input goes through the same kernel
            v2 = np.repeat(v, 2)[::2]
            assert mat.matvec(v2).tobytes() == (csr @ v).tobytes()

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
        np.testing.assert_array_equal(mat.row_abs_max(), [4.0, 3.0])
        np.testing.assert_array_equal(mat.col_abs_max(), [1.0, 4.0, 3.0])
        assert mat.abs_max() == 4.0

    def test_power_sums(self):
        dense = np.array([[1.0, -2.0], [3.0, 0.0]])
        mat = SparseMatrix(dense, shape=(2, 2))
        np.testing.assert_allclose(mat.row_power_sum(2.0), [5.0, 9.0])
        np.testing.assert_allclose(mat.col_power_sum(1.0), [4.0, 2.0])

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

    def test_vstack_matches_dense(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 4))
        stacked = SparseMatrix.vstack(
            [SparseMatrix(a, shape=(2, 4)), SparseMatrix(b, shape=(3, 4))]
        )
        np.testing.assert_array_equal(stacked.toarray(), np.vstack([a, b]))

    def test_eye_and_empty(self):
        assert SparseMatrix.eye(3).nnz == 3
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

    def test_iteration_budget_reported(self):
        rng = np.random.default_rng(9)
        dense = rng.standard_normal((20, 20))
        mat = SparseMatrix(dense, shape=(20, 20))
        est = spectral_norm_estimate(mat, tol=1e-15, max_iters=3)
        assert not est.converged
        assert est.iterations == 3
