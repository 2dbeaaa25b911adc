"""Sparse matrix kernel used by the solver.

Wraps one scipy CSR matrix; every iteration needs both K x and K^T y, and
K^T y reads the same CSR arrays as K x.  Instances are immutable; the
matvec call counters are the only mutable state and exist for statistics
(they are not synchronized, so counts are approximate if a matrix is shared
across threads).
"""

import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .exceptions import DimensionMismatch, NonFiniteData

_FLOAT64 = np.dtype(np.float64)


class SparseMatrix:
    """CSR matrix with both products and cheap row/column reductions."""

    __slots__ = ("_csr", "shape", "nnz", "matvec_calls", "rmatvec_calls")

    def __init__(self, matrix, shape=None):
        if isinstance(matrix, SparseMatrix):
            matrix = matrix._csr
        self._own(sp.csr_matrix(matrix, shape=shape, dtype=np.float64, copy=True))

    def _own(self, csr):
        """Bring the float64 ``csr`` to canonical form in place, check that
        it is finite and keep it, without a copy."""
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if csr.nnz and not np.all(np.isfinite(csr.data)):
            raise NonFiniteData(["matrix contains non-finite entries"])
        self._csr = csr
        self.shape = csr.shape
        self.nnz = int(csr.nnz)
        self.matvec_calls = 0
        self.rmatvec_calls = 0

    # -- products ---------------------------------------------------------

    # Both products call scipy's kernels directly, into a fresh zero vector.
    # K's CSR arrays read as CSC are K^T; the column kernel sums each out[j]
    # over the rows of K in order, as a gather over a sorted transpose would.
    # A float64 ndarray, which is what the solver passes, is used as it is.

    def matvec(self, x):
        """Return M @ x."""
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=np.float64)
        m, n = self.shape
        if x.shape != (n,):
            raise DimensionMismatch([f"matvec expected a vector of length {n}, got shape {x.shape}"])
        self.matvec_calls += 1
        out = np.zeros(m)
        csr = self._csr
        csr_matvec(m, n, csr.indptr, csr.indices, csr.data, x, out)
        return out

    def rmatvec(self, y):
        """Return M.T @ y."""
        if type(y) is not np.ndarray or y.dtype is not _FLOAT64:
            y = np.asarray(y, dtype=np.float64)
        m, n = self.shape
        if y.shape != (m,):
            raise DimensionMismatch([f"rmatvec expected a vector of length {m}, got shape {y.shape}"])
        self.rmatvec_calls += 1
        out = np.zeros(n)
        csr = self._csr
        csc_matvec(n, m, csr.indptr, csr.indices, csr.data, y, out)
        return out

    # -- reductions -------------------------------------------------------

    def row_abs_max(self):
        """Infinity norm of each row (zeros for empty rows)."""
        out = np.zeros(self.shape[0])
        if self.nnz:
            rows = np.repeat(np.arange(self.shape[0]), np.diff(self._csr.indptr))
            np.maximum.at(out, rows, np.abs(self._csr.data))
        return out

    def col_abs_max(self):
        out = np.zeros(self.shape[1])
        if self.nnz:
            np.maximum.at(out, self._csr.indices, np.abs(self._csr.data))
        return out

    def row_power_sum(self, power):
        """sum_j |M_ij|^power for each row i."""
        out = np.zeros(self.shape[0])
        if self.nnz:
            rows = np.repeat(np.arange(self.shape[0]), np.diff(self._csr.indptr))
            np.add.at(out, rows, np.abs(self._csr.data) ** power)
        return out

    def col_power_sum(self, power):
        out = np.zeros(self.shape[1])
        if self.nnz:
            np.add.at(out, self._csr.indices, np.abs(self._csr.data) ** power)
        return out

    def abs_max(self):
        """Largest absolute entry (0 for an all-zero matrix)."""
        return float(np.abs(self._csr.data).max()) if self.nnz else 0.0

    # -- construction helpers ----------------------------------------------

    def scaled(self, row_scale, col_scale, row_order=None):
        """Return P @ diag(row_scale) @ M @ diag(col_scale) as a new matrix.

        P gathers the rows by ``row_order``, a permutation of the row
        indices: row i of the result is row ``row_order[i]``.  None keeps
        the order.  Each entry is M_ij * (row_scale_i * col_scale_j), and
        the result is built in one copy of M's arrays.
        """
        row_scale = np.asarray(row_scale, dtype=np.float64)
        col_scale = np.asarray(col_scale, dtype=np.float64)
        m = self.shape[0]
        if row_scale.shape != (m,) or col_scale.shape != (self.shape[1],):
            raise DimensionMismatch(["scaling vectors do not match matrix shape"])
        csr = self._csr
        lengths = np.diff(csr.indptr)
        if row_order is None:
            indptr, indices, values = csr.indptr.copy(), csr.indices.copy(), csr.data
        else:
            row_order = np.asarray(row_order, dtype=np.intp)
            if row_order.shape != (m,):
                raise DimensionMismatch([f"row order has shape {row_order.shape}, expected {(m,)}"])
            lengths = lengths[row_order]
            row_scale = row_scale[row_order]
            indptr = np.zeros_like(csr.indptr)
            np.cumsum(lengths, out=indptr[1:])
            # where in M each entry of the result sits
            source = np.arange(self.nnz, dtype=indptr.dtype)
            source += np.repeat(csr.indptr[row_order] - indptr[:-1], lengths)
            indices, values = csr.indices[source], csr.data[source]
            del source
        data = np.repeat(row_scale, lengths)
        with np.errstate(over="ignore"):  # _own reports an overflow as NonFiniteData
            data *= col_scale[indices]
            data *= values
        out = SparseMatrix.__new__(SparseMatrix)
        out._own(sp.csr_matrix((data, indices, indptr), shape=self.shape))
        return out

    def row_lengths(self):
        """Number of stored nonzeros in each row."""
        return np.diff(self._csr.indptr)

    @classmethod
    def vstack(cls, blocks):
        blocks = [b._csr if isinstance(b, SparseMatrix) else sp.csr_matrix(b) for b in blocks]
        widths = {b.shape[1] for b in blocks}
        if len(widths) > 1:
            raise DimensionMismatch(["vstack blocks have different column counts"])
        return cls(sp.vstack(blocks, format="csr"))

    @classmethod
    def eye(cls, n):
        return cls(sp.eye(n, format="csr"))

    @classmethod
    def empty(cls, shape):
        return cls(sp.csr_matrix(shape))

    def tocsr(self):
        """Underlying scipy CSR (a copy, so callers cannot mutate us)."""
        return self._csr.copy()

    def toarray(self):
        return self._csr.toarray()

    def tocoo(self):
        return self._csr.tocoo()

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


class SpectralEstimate:
    """Result of a power-iteration spectral norm estimate."""

    __slots__ = ("value", "converged", "iterations")

    def __init__(self, value, converged, iterations):
        self.value = float(value)
        self.converged = bool(converged)
        self.iterations = int(iterations)

    def __repr__(self):
        return (
            f"SpectralEstimate(value={self.value!r}, converged={self.converged},"
            f" iterations={self.iterations})"
        )


def spectral_norm_estimate(matrix, tol=1e-4, max_iters=5000, seed=0, *, deadline=math.inf):
    """Estimate ||M||_2 by power iteration on M^T M.

    Deterministic for a fixed seed.  Convergence is declared when successive
    estimates agree to a relative tolerance of ``tol``; if the iteration
    budget runs out, or ``time.perf_counter()`` reaches ``deadline`` before
    a pair of products, the best estimate is returned with
    ``converged=False``.
    """
    rows, cols = matrix.shape
    if rows == 0 or cols == 0 or matrix.nnz == 0:
        return SpectralEstimate(0.0, True, 0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cols)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for it in range(1, max_iters + 1):
        if time.perf_counter() >= deadline:
            return SpectralEstimate(sigma, False, it - 1)
        y = matrix.rmatvec(matrix.matvec(x))
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            # Landed exactly in the null space; restart from a new direction.
            x = rng.standard_normal(cols)
            x /= np.linalg.norm(x)
            continue
        new_sigma = math.sqrt(norm_y)
        x = y / norm_y
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-30):
            return SpectralEstimate(new_sigma, True, it)
        sigma = new_sigma
    return SpectralEstimate(sigma, False, max_iters)
