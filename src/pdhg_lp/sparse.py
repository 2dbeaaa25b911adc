"""Sparse matrix kernel used by the solver, and its vector dot product.

Wraps one scipy CSR matrix; every iteration needs both K x and K^T y, and
K^T y reads the same CSR arrays as K x.  Instances are immutable; the
matvec call counters are the only mutable state and exist for statistics
(they are not synchronized, so counts are approximate if a matrix is shared
across threads).  ``row_blocks`` splits a large matrix's rows in two, for
two threads: both products run on the ``row_blocks()``, as the Halpern and
the fixed step do.  With one block a product is one scipy kernel call.
With two, the worker thread (``_worker``) runs the second block while the
caller runs the first (``_in_halves``), or on one CPU the caller runs both
in turn: K x writes each block's rows of the result, the same bits as one
call, and K'y sums the two blocks' parts, as the step kernel does.  The
split depends only on the nonzero count, so either product gives the same
bits on any number of CPUs.  The same worker runs the second block's half
of each scaling pass (``scaling.py``) and of ``scaled``'s entries.  The
worker runs only scipy kernels and numpy ufuncs, never a function a tracer
could wrap: ``matvec`` and ``rmatvec`` must never be called on it.

``dot`` is the one inner product of the solver's loop.  On a long vector it
runs numpy's einsum, not BLAS: OpenBLAS's dot kernel splits a vector of
more than 10,000 entries across its own threads, and after that its worker
thread spins on a second core for a while, which starves whatever else runs
there (the step's own worker thread).  A short vector stays
on the calling thread, where BLAS's 0.4 us per call beats einsum's 1 us.
"""

import math
import os
import time
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_scale_columns, csr_scale_rows

from .exceptions import DimensionMismatch, NonFiniteData, NonPositiveInput, _count, _real

try:  # einsum's C entry point, without np.einsum's Python wrapper
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

_FLOAT64 = np.dtype(np.float64)

# A matrix with at least this many nonzeros has its rows in two blocks of
# about half the nonzeros each, which the Halpern and the fixed step run on
# two threads.  Below it one block, and the steps run inline: a round trip
# to the worker thread costs 10-60 us, more than half a product saves on a
# small matrix.
SPLIT_MIN_NNZ = 200_000

# What a row costs in the Halpern step's third phase (K r and the y side),
# in nonzeros: the row kernel's per-row loop and the eight vector passes over
# y.  That phase splits its rows so that nonzeros plus ROW_WEIGHT per row
# fall in half on each side (``row_blocks(ROW_WEIGHT)``); rows are
# independent there, so the split moves no bit.  Measured on the scaled
# n=1e5 PageRank (8e5 nonzeros, grouped rows) on a 2-core AMD EPYC: on one
# thread the phase costs 0.39 ns a nonzero and 2.0 ns a row (a weight of
# 5); on two threads the halves balance at 6, 262/259 us against 228/291 us
# at the nonzero split, and the phase takes 279 us instead of 310 us.  The
# fixed step's third phase, without the mix's passes, takes the same split.
ROW_WEIGHT = 6.0


# Vectors longer than this take einsum in ``dot``.  Measured with numpy
# 2.4's OpenBLAS on a 2-core AMD EPYC: a loop of BLAS dots keeps the process
# at 1.0 CPU-seconds per second up to 10,000 entries and at 2.0 from 20,000.
DOT_BLAS_MAX = 4096


def dot(a, b):
    """The inner product of two float64 vectors, as a float: BLAS up to
    DOT_BLAS_MAX entries, einsum above (module docstring)."""
    if a.size <= DOT_BLAS_MAX:
        return float(a.dot(b))
    return float(_einsum("i,i", a, b))


class SparseMatrix:
    """CSR matrix with both products, its row blocks and its largest entry."""

    __slots__ = ("_csr", "shape", "nnz", "matvec_calls", "rmatvec_calls", "_row_blocks")

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
        self._row_blocks = {}

    # -- products ---------------------------------------------------------

    # Both products call scipy's kernels directly, on each row block (module
    # docstring).  K's CSR arrays read as CSC are K^T; the column kernel sums
    # each out[j] over a block's rows of K in order, as a gather over a
    # sorted transpose would.  A float64 ndarray, which is what the solver
    # passes, is used as it is.

    def matvec(self, x):
        """Return M @ x."""
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=np.float64)
        m, n = self.shape
        if x.shape != (n,):
            raise DimensionMismatch([f"matvec expected a vector of length {n}, got shape {x.shape}"])
        self.matvec_calls += 1
        out = np.zeros(m)
        blocks = self.row_blocks()
        if len(blocks) == 1:
            csr = self._csr
            csr_matvec(m, n, csr.indptr, csr.indices, csr.data, x, out)
        else:
            _in_halves(_worker(), _row_product, [(block, n, x, out) for block in blocks])
        return out

    def rmatvec(self, y):
        """Return M.T @ y."""
        if type(y) is not np.ndarray or y.dtype is not _FLOAT64:
            y = np.asarray(y, dtype=np.float64)
        m, n = self.shape
        if y.shape != (m,):
            raise DimensionMismatch([f"rmatvec expected a vector of length {m}, got shape {y.shape}"])
        self.rmatvec_calls += 1
        blocks = self.row_blocks()
        if len(blocks) == 1:
            out = np.zeros(n)
            csr = self._csr
            csc_matvec(n, m, csr.indptr, csr.indices, csr.data, y, out)
            return out
        out, part = np.empty(n), np.empty(n)
        _in_halves(_worker(), _transpose_product, [(block, n, y, v) for block, v in zip(blocks, (out, part))])
        out += part
        return out

    def row_blocks(self, row_weight=0):
        """The rows as one block, or from SPLIT_MIN_NNZ nonzeros on as two
        blocks of about half the nonzeros plus ``row_weight`` per row each.

        A block is (rows, indptr, indices, data): the slice of its rows,
        and views of the matrix's own CSR arrays, no copy, such that
        scipy's ``csr_matvec(rows.stop - rows.start, n, indptr, indices,
        data, x, out[rows])`` adds the block's rows times x into
        ``out[rows]`` and ``csc_matvec(n, rows.stop - rows.start, indptr,
        indices, data, y[rows], out)`` adds their transpose times
        ``y[rows]`` into ``out``.  Computed once for each ``row_weight``.
        """
        blocks = self._row_blocks.get(row_weight)
        if blocks is None:
            csr = self._csr
            m = self.shape[0]
            bounds = [0, m]
            if self.nnz >= SPLIT_MIN_NNZ and m > 1:
                cost = csr.indptr
                if row_weight:
                    cost = np.arange(m + 1, dtype=np.float64)
                    cost *= row_weight
                    cost += csr.indptr
                bounds.insert(1, _middle_row(cost))
            blocks = self._row_blocks[row_weight] = tuple(
                (slice(a, b), csr.indptr[a : b + 1], csr.indices, csr.data) for a, b in zip(bounds, bounds[1:])
            )
        return blocks

    # -- reductions -------------------------------------------------------

    def abs_max(self):
        """Largest absolute entry (0 for an all-zero matrix)."""
        return float(np.abs(self._csr.data).max()) if self.nnz else 0.0

    # -- construction helpers ----------------------------------------------

    def scaled(self, row_scale, col_scale, row_order=None):
        """Return P @ diag(row_scale) @ M @ diag(col_scale) as a new matrix.

        P gathers the rows by ``row_order``, a permutation of the row
        indices: row i of the result is row ``row_order[i]``.  None keeps
        the order.  Each entry is M_ij * (row_scale_i * col_scale_j), and
        the result is built in one copy of M's arrays.  Where M has two row
        blocks, the result's two halves of nonzeros form their entries on
        two threads.
        """
        row_scale = np.asarray(row_scale, dtype=np.float64)
        col_scale = np.asarray(col_scale, dtype=np.float64)
        m = self.shape[0]
        if row_scale.shape != (m,) or col_scale.shape != (self.shape[1],):
            raise DimensionMismatch(["scaling vectors do not match matrix shape"])
        csr = self._csr
        if row_order is None:
            indptr, indices, values = csr.indptr.copy(), csr.indices.copy(), csr.data
        else:
            row_order = np.asarray(row_order, dtype=np.intp)
            if row_order.shape != (m,):
                raise DimensionMismatch([f"row order has shape {row_order.shape}, expected {(m,)}"])
            lengths = np.diff(csr.indptr)[row_order]
            row_scale = row_scale[row_order]
            indptr = np.zeros_like(csr.indptr)
            np.cumsum(lengths, out=indptr[1:])
            # where in M each entry of the result sits
            source = np.arange(self.nnz, dtype=indptr.dtype)
            source += np.repeat(csr.indptr[row_order] - indptr[:-1], lengths)
            indices, values = csr.indices[source], csr.data[source]
            del source
        data = np.empty(self.nnz)
        halves = [slice(0, m)]
        if len(self.row_blocks()) == 2:
            middle = _middle_row(indptr)
            halves = [slice(0, middle), slice(middle, m)]
        args = [(rows, indptr, indices, values, row_scale, col_scale, data) for rows in halves]
        _in_halves(_worker() if len(halves) == 2 else None, _scaled_entries, args)
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


# (the process that made it, the products' worker thread), set as one
# value.  Two threads that both find it unset may each make a worker; the
# one not kept is collected, and its thread exits then.
_pool = None


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker():
    """The worker thread of two-block products and steps, or None on a
    single CPU.  Made on first use, and again in a forked child, which has
    no copy of the thread.  The worker ignores overflow and invalid
    results, as the step kernel does."""
    global _pool
    if _cpus() < 2:
        return None
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        # imported here: a process that never splits a matrix should not pay for it
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=1, initializer=partial(np.seterr, over="ignore", invalid="ignore"))
        _pool = (pid, executor)
    return _pool[1]


def _in_halves(pool, task, halves):
    """[task(*args) for args in halves]; given the worker, it runs the
    second while the caller runs the first."""
    if pool is None:
        return [task(*args) for args in halves]
    first, second = halves
    future = pool.submit(task, *second)
    try:
        done = task(*first)
    finally:
        other = future.result()
    return [done, other]


def _middle_row(cost):
    """The row, neither the first nor past the last, at which ``cost``, a
    running total over the rows from 0 (such as an indptr), reaches half."""
    return min(max(int(np.searchsorted(cost, cost[-1] // 2)), 1), cost.size - 2)


def _scaled_entries(rows, indptr, indices, values, row_scale, col_scale, out):
    """``SparseMatrix.scaled``'s entries in ``rows`` into ``out``:
    (row_scale_i * col_scale_j) * M_ij, multiplied in that order by
    scipy's row and column scaling kernels and then by the values."""
    lo, hi = indptr[rows.start], indptr[rows.stop]
    local, part = indptr[rows.start : rows.stop + 1] - lo, out[lo:hi]
    part.fill(1.0)
    csr_scale_rows(rows.stop - rows.start, col_scale.size, local, indices[lo:hi], part, row_scale[rows])
    csr_scale_columns(rows.stop - rows.start, col_scale.size, local, indices[lo:hi], part, col_scale)
    with np.errstate(over="ignore"):  # _own reports an overflow as NonFiniteData
        part *= values[lo:hi]


def _row_product(block, n, x, out):
    """Add the block's rows of K times x into out's entries in those rows."""
    rows, indptr, indices, data = block
    csr_matvec(rows.stop - rows.start, n, indptr, indices, data, x, out[rows])


def _transpose_product(block, n, y, out):
    """out = the block's rows of K, transposed, times y's entries in them."""
    rows, indptr, indices, data = block
    out.fill(0.0)
    csc_matvec(n, rows.stop - rows.start, indptr, indices, data, y[rows], out)


class SpectralEstimate:
    """Result of a spectral norm estimate: the value, whether it met its
    tolerance, and the products M^T M v (or M M^T v) it took."""

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
    """Estimate ||M||_2 as the square root of the top eigenvalue of M^T M
    (or of M M^T, whichever is smaller), by the plain Lanczos recurrence,
    without reorthogonalization, from a standard normal vector drawn with
    ``seed``.

    The top Ritz value theta rises to ||M||^2; it is taken, converged, once
    ARPACK's test |beta_k s_k| <= tol * theta holds, s the Ritz vector (as
    it does when beta_k = 0, for a single row or column at step 1).  Each
    product with the normal operator counts as one iteration; once
    ``max_iters`` are spent, or ``time.perf_counter()`` reaches ``deadline``
    before a product, the largest ||M v|| over the unit Lanczos vectors (a
    lower bound on the norm) is returned with ``converged=False``.

    The same bits for a given ``seed`` on any number of BLAS threads and on
    any number of CPUs: a product's split into row blocks depends only on
    the nonzero count (module docstring).  The start is random, not all
    ones: a part of M whose rows sum to zero (a difference row x_i - x_j) is
    exactly 0 in M^T M 1 and stays 0 through every Lanczos vector, so a ones
    start can miss a larger singular value held there.
    """
    max_iters, tol = _count("max_iters", max_iters, least=1), _real("tol", tol)
    if not 0.0 <= tol < math.inf:
        raise NonPositiveInput(f"tol must be a finite real >= 0, got {tol!r}")
    rows, cols = matrix.shape
    if rows == 0 or cols == 0 or matrix.nnz == 0:
        return SpectralEstimate(0.0, True, 0)
    # the import is lazy, as it takes about 20 ms, and follows the first
    # deadline test, so that a solve out of time does not pay it either
    if time.perf_counter() >= deadline:
        return SpectralEstimate(0.0, False, 0)
    from scipy.linalg.lapack import dstebz, dstein

    dim = min(rows, cols)
    first, second = (matrix.matvec, matrix.rmatvec) if cols == dim else (matrix.rmatvec, matrix.matvec)
    v = np.random.default_rng(seed).standard_normal(dim)
    v /= math.sqrt(dot(v, v))
    v_prev = np.zeros(dim)
    scratch = np.empty(dim)
    alphas, betas = [], []
    beta = 0.0
    while True:
        u = first(v)
        alpha = dot(u, u)  # v' M^T M v, with ||v|| = 1
        w = second(u)
        w -= np.multiply(alpha, v, out=scratch)
        w -= np.multiply(beta, v_prev, out=scratch)
        alphas.append(alpha)
        beta = math.sqrt(dot(w, w))
        # the top Ritz pair as scipy.linalg.eigh_tridiagonal(select="i")
        # finds it, without that function's 15 us of checks per call
        k = len(alphas)
        theta, last = alpha, 1.0
        if k > 1:
            _, top, block, split, _ = dstebz(alphas, betas, 3, 0.0, 0.0, k, k, 0.0, "B")
            ritz, _ = dstein(alphas, betas, top[:1], block, split)
            theta, last = float(top[0]), abs(float(ritz[-1, 0]))
        if beta * last <= tol * theta:
            return SpectralEstimate(math.sqrt(theta), True, k)
        betas.append(beta)
        v_prev, v = v, w
        v /= beta
        if k == max_iters or time.perf_counter() >= deadline:
            return SpectralEstimate(math.sqrt(max(alphas)), False, k)
