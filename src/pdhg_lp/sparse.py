"""Sparse matrix kernel used by the solver.

Wraps a scipy CSR matrix together with a precomputed CSR transpose, since
every iteration needs both K x and K^T y.  Instances are immutable; the
matvec call counters are the only mutable state and exist for statistics
(they are not synchronized, so counts are approximate if a matrix is shared
across threads).
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .exceptions import DimensionMismatch, NonFiniteData


class SparseMatrix:
    """CSR matrix with a transpose mirror and cheap row/column reductions."""

    __slots__ = ("_csr", "_csr_t", "shape", "nnz", "matvec_calls", "rmatvec_calls")

    def __init__(self, matrix, shape=None):
        if isinstance(matrix, SparseMatrix):
            matrix = matrix._csr
        csr = sp.csr_matrix(matrix, shape=shape, dtype=np.float64, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if csr.nnz and not np.all(np.isfinite(csr.data)):
            raise NonFiniteData(["matrix contains non-finite entries"])
        self._csr = csr
        self._csr_t = csr.T.tocsr()
        self.shape = csr.shape
        self.nnz = int(csr.nnz)
        self.matvec_calls = 0
        self.rmatvec_calls = 0

    # -- products ---------------------------------------------------------

    # Both products call scipy's CSR kernel directly, into a fresh zero
    # vector: that is what ``csr @ x`` runs, minus about 4 us of dispatch.

    def matvec(self, x):
        """Return M @ x."""
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
        """Return M.T @ y using the stored transpose."""
        y = np.asarray(y, dtype=np.float64)
        m, n = self.shape
        if y.shape != (m,):
            raise DimensionMismatch([f"rmatvec expected a vector of length {m}, got shape {y.shape}"])
        self.rmatvec_calls += 1
        out = np.zeros(n)
        csr_t = self._csr_t
        csr_matvec(n, m, csr_t.indptr, csr_t.indices, csr_t.data, y, out)
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

    def scaled(self, row_scale, col_scale):
        """Return diag(row_scale) @ M @ diag(col_scale) as a new matrix."""
        row_scale = np.asarray(row_scale, dtype=np.float64)
        col_scale = np.asarray(col_scale, dtype=np.float64)
        if row_scale.shape != (self.shape[0],) or col_scale.shape != (self.shape[1],):
            raise DimensionMismatch(["scaling vectors do not match matrix shape"])
        out = self._csr.copy()
        if out.nnz:
            rows = np.repeat(np.arange(self.shape[0]), np.diff(out.indptr))
            out.data *= row_scale[rows] * col_scale[out.indices]
        return SparseMatrix(out, shape=self.shape)

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


def spectral_norm_estimate(matrix, tol=1e-4, max_iters=5000, seed=0):
    """Estimate ||M||_2 by power iteration on M^T M.

    Deterministic for a fixed seed.  Convergence is declared when successive
    estimates agree to a relative tolerance of ``tol``; if the iteration
    budget runs out the best estimate is returned with ``converged=False``.
    """
    rows, cols = matrix.shape
    if rows == 0 or cols == 0 or matrix.nnz == 0:
        return SpectralEstimate(0.0, True, 0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cols)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for it in range(1, max_iters + 1):
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
