"""Sparse matrix kernel used by the solver, and its vector dot product.

Holds one matrix's canonical CSR arrays (``indptr``, ``indices``,
``data``); every iteration needs both K x and K^T y, and K^T y reads the
same CSR arrays as K x.  Instances are immutable; the
matvec call counters are the only mutable state and exist for statistics
(they are not synchronized, so counts are approximate if a matrix is shared
across threads).  ``row_blocks`` splits a large matrix's rows in two, for
two threads: both products run on the ``row_blocks()``, as the Halpern and
the fixed step do.  With one block a product is one scipy kernel call.
With two, ``_in_halves`` runs them: the worker thread (``_worker``) runs
the second block while the caller runs the first, or on one CPU the caller
runs both in turn: K x writes each block's rows of the result, the same
bits as one call, and K'y sums the two blocks' parts, as the step kernel
does.  The split depends only on the nonzero count, so either product
gives the same bits on any number of CPUs.

This module alone runs halves on the worker: ``_in_halves`` is the one
runner, for the products here, each phase of the two-block step
(``pdhg.py``), each scaling pass (``scaling.py``) and ``scaled``'s
entries, and the one place that asks for the worker, once per call.  It
alone imports scipy, and numpy's private modules, and hands on the
kernels the other modules call: scipy's products, its scaling kernels
(``_scaled_entries``, for ``scaled`` and the scaling passes alike), the
kernels that build the PageRank matrix and the MPS writer's columns, and
numpy's clip ufunc.  The worker runs only scipy kernels and numpy ufuncs,
never a function a tracer could wrap: ``matvec`` and ``rmatvec`` must
never be called on it.

Of scipy, an import and a solve load only two compiled modules: the CSR
kernels of ``scipy.sparse._sparsetools`` when this module is imported, and
LAPACK's ``scipy.linalg._flapack`` for the first norm estimate.
``_compiled`` loads each from its file, without the Python layer of
``scipy.sparse`` or ``scipy.linalg``, which takes about 0.2 s to import.
A matrix is built and brought to canonical form with the same kernels that
scipy's own methods call, so its arrays hold the bits
``scipy.sparse.csr_matrix`` would give.  Only ``tocsr``, and a matrix given
in a form that only scipy reads (a scipy matrix, a COO or CSR tuple, a
shape), import ``scipy.sparse``.

``dot`` is the one inner product of the solver's loop.  On a long vector it
runs numpy's einsum, not BLAS: OpenBLAS's dot kernel splits a vector of
more than 10,000 entries across its own threads, and after that its worker
thread spins on a second core for a while, which starves whatever else runs
there (the step's own worker thread).  A short vector stays
on the calling thread, where BLAS's 0.4 us per call beats einsum's 1 us.
"""

import importlib
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
import threading
import time
from functools import partial

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteData, NonPositiveInput, _count, _real

try:  # einsum's C entry point, without np.einsum's Python wrapper, and the
    # clip ufunc itself, without ndarray.clip's (for pdhg.py and restarts.py)
    from numpy._core.multiarray import c_einsum as _einsum
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum
    from numpy.core.umath import clip as _clip

_LOADING = threading.Lock()
_loaded = {}  # name -> the compiled module that _load_file loaded


def _compiled(name):
    """scipy's compiled module ``name``: the one in ``sys.modules``, or else
    the one ``_load_file`` loads, or, should that find or load nothing, the
    one the normal import gives.  Each holds the same kernels, and so gives the
    same bits."""
    with _LOADING:
        module = sys.modules.get(name) or _loaded.get(name)
        if module is None:
            try:
                module = _loaded[name] = _load_file(name)
            except ImportError:
                module = importlib.import_module(name)
    return module


def _load_file(name):
    """Load scipy's compiled module ``name`` from its file in the installed
    scipy's directory, found without importing scipy: neither ``scipy``'s
    nor its subpackage's ``__init__`` runs.

    CPython enters such a module in ``sys.modules`` as it loads it, though
    its package is not there; it is taken out again, so that a later
    ``import scipy.sparse`` or ``scipy.linalg`` loads it the usual way and
    the package has it as an attribute.  CPython keeps the module's first
    load for that, so the kernels are then the same objects as these."""
    root = importlib.util.find_spec("scipy")
    if root is None or not root.submodule_search_locations:
        raise ImportError("no scipy directory found")
    package = os.path.join(*name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(path, package) for path in root.submodule_search_locations]
    )
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        raise ImportError(f"no compiled file for {name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


_sparsetools = _compiled("scipy.sparse._sparsetools")
csc_matvec, csr_matvec = _sparsetools.csc_matvec, _sparsetools.csr_matvec
csr_scale_columns, csr_scale_rows = _sparsetools.csr_scale_columns, _sparsetools.csr_scale_rows
csr_minus_csr, csr_tocsc = _sparsetools.csr_minus_csr, _sparsetools.csr_tocsc

_FLOAT64 = np.dtype(np.float64)
_INT32_MAX = np.iinfo(np.int32).max

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


def _index_dtype(*sizes):
    """The index dtype scipy gives a matrix whose dimensions and nonzero
    count are ``sizes``: int32 where each fits in it, else int64."""
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


class SparseMatrix:
    """CSR matrix with both products, its row blocks and its largest entry.

    Built from a numeric dense array (its nonzeros in row-major order, as
    ``np.nonzero`` finds them) or another SparseMatrix (its arrays, shared),
    and from any other form that ``scipy.sparse.csr_matrix`` reads (a scipy
    sparse matrix, a COO or CSR tuple, a shape) through scipy, whose caller
    has mostly loaded it already.  A ``shape`` other than the form's own
    also goes through scipy.
    Either way the arrays are then brought to scipy's canonical form: rows'
    indices sorted, duplicates summed, explicit zeros dropped; int32 indices
    where they fit; float64 entries, which must be finite.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "nnz", "matvec_calls", "rmatvec_calls", "_row_blocks")

    def __init__(self, matrix, shape=None):
        if isinstance(matrix, SparseMatrix):
            if _same_shape(shape, matrix.shape):
                self._keep(matrix.indptr, matrix.indices, matrix.data, matrix.shape)
                return
            matrix = matrix.tocsr()
        if not isinstance(matrix, tuple):
            dense = np.atleast_2d(np.asarray(matrix))  # of a scipy matrix, an object array
            if dense.ndim == 2 and dense.dtype.kind in "biuf" and _same_shape(shape, dense.shape):
                self._own(*_dense_csr(dense), dense.shape)
                return
        import scipy.sparse as sp

        csr = sp.csr_matrix(matrix, shape=shape, dtype=np.float64, copy=True)
        self._own(csr.indptr, csr.indices, csr.data, csr.shape)

    @classmethod
    def _from_coo(cls, rows, cols, values, shape):
        """The matrix of float64 ``values`` at (``rows``, ``cols``), repeats
        summed, as ``scipy.sparse.coo_matrix((values, (rows, cols)),
        shape).tocsr()`` builds it; the input arrays are left as they are."""
        m, n = shape
        idx = _index_dtype(m, n, values.size)
        rows, cols = rows.astype(idx, copy=False), cols.astype(idx, copy=False)
        if values.size and not (0 <= rows.min() and rows.max() < m and 0 <= cols.min() and cols.max() < n):
            raise DimensionMismatch([f"an entry lies outside the shape {shape}"])
        indptr, indices, data = np.empty(m + 1, idx), np.empty(values.size, idx), np.empty(values.size)
        _sparsetools.coo_tocsr(m, n, values.size, rows, cols, values, indptr, indices, data)
        return cls._adopt(indptr, indices, data, shape)

    @classmethod
    def _adopt(cls, indptr, indices, data, shape):
        """The matrix of the CSR arrays ``indptr``, ``indices`` (of one
        integer dtype) and float64 ``data``, taken as its own: brought to
        canonical form in place, without a copy."""
        out = cls.__new__(cls)
        out._own(indptr, indices, data, shape)
        return out

    def _own(self, indptr, indices, data, shape):
        """Bring the CSR arrays to canonical form in place, as scipy's
        ``sum_duplicates``, ``eliminate_zeros`` and ``sort_indices`` do (the
        first two skip what is already done, as scipy does), then keep
        them."""
        m, n = shape
        if not _sparsetools.csr_has_canonical_format(m, indptr, indices):
            if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
                _sparsetools.csr_sort_indices(m, indptr, indices, data)
            _sparsetools.csr_sum_duplicates(m, n, indptr, indices, data)
        _sparsetools.csr_eliminate_zeros(m, n, indptr, indices, data)
        nnz = int(indptr[-1])
        self._keep(indptr, _pruned(indices, nnz), _pruned(data, nnz), shape)

    def _keep(self, indptr, indices, data, shape):
        """Keep canonical CSR arrays, without a copy, once their entries are
        found finite."""
        if data.size and not np.all(np.isfinite(data)):
            raise NonFiniteData(["matrix contains non-finite entries"])
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (operator.index(shape[0]), operator.index(shape[1]))
        self.nnz = int(data.size)
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
            csr_matvec(m, n, self.indptr, self.indices, self.data, x, out)
        else:
            _in_halves(_row_product, [(block, n, x, out) for block in blocks])
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
            csc_matvec(n, m, self.indptr, self.indices, self.data, y, out)
            return out
        out, part = np.empty(n), np.empty(n)
        _in_halves(_transpose_product, [(block, n, y, v) for block, v in zip(blocks, (out, part))])
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
            indptr = self.indptr
            m = self.shape[0]
            bounds = [0, m]
            if self.nnz >= SPLIT_MIN_NNZ and m > 1:
                cost = indptr
                if row_weight:
                    cost = np.arange(m + 1, dtype=np.float64)
                    cost *= row_weight
                    cost += indptr
                bounds.insert(1, _middle_row(cost))
            blocks = self._row_blocks[row_weight] = tuple(
                (slice(a, b), indptr[a : b + 1], self.indices, self.data) for a, b in zip(bounds, bounds[1:])
            )
        return blocks

    # -- reductions -------------------------------------------------------

    def abs_max(self):
        """Largest absolute entry (0 for an all-zero matrix)."""
        return float(np.abs(self.data).max()) if self.nnz else 0.0

    # -- construction helpers ----------------------------------------------

    def scaled(self, row_scale, col_scale, row_order=None):
        """Return P @ diag(row_scale) @ M @ diag(col_scale) as a new matrix.

        P gathers the rows by ``row_order``, a permutation of the row
        indices: row i of the result is row ``row_order[i]``.  None keeps
        the order.  Each entry is (row_scale_i * col_scale_j) * M_ij, and
        the result is built in one copy of M's arrays.  Where M has two row
        blocks, the result's two halves of nonzeros form row_scale_i *
        col_scale_j on two threads (``_scaled_entries``), and one pass on
        the caller multiplies in M_ij.
        """
        row_scale = np.asarray(row_scale, dtype=np.float64)
        col_scale = np.asarray(col_scale, dtype=np.float64)
        m = self.shape[0]
        if row_scale.shape != (m,) or col_scale.shape != (self.shape[1],):
            raise DimensionMismatch(["scaling vectors do not match matrix shape"])
        if row_order is None:
            indptr, indices, values = self.indptr.copy(), self.indices.copy(), self.data
        else:
            row_order = _permutation(row_order, m)
            lengths = np.diff(self.indptr)[row_order]
            row_scale = row_scale[row_order]
            indptr = np.zeros_like(self.indptr)
            np.cumsum(lengths, out=indptr[1:])
            # where in M each entry of the result sits
            source = np.arange(self.nnz, dtype=indptr.dtype)
            source += np.repeat(self.indptr[row_order] - indptr[:-1], lengths)
            indices, values = self.indices[source], self.data[source]
            del source
        data = np.empty(self.nnz)
        bounds = [0, _middle_row(indptr), m] if len(self.row_blocks()) == 2 else [0, m]
        halves = []
        for a, b in zip(bounds, bounds[1:]):
            lo, hi = indptr[a], indptr[b]
            halves.append((slice(a, b), indptr[a : b + 1] - lo, indices[lo:hi], 1.0, row_scale, col_scale, data[lo:hi]))
        _in_halves(_scaled_entries, halves)
        with np.errstate(over="ignore"):  # _keep reports an overflow as NonFiniteData
            data *= values
        return SparseMatrix._adopt(indptr, indices, data, self.shape)

    def row_lengths(self):
        """Number of stored nonzeros in each row."""
        return np.diff(self.indptr)

    @classmethod
    def vstack(cls, blocks):
        blocks = [b if isinstance(b, SparseMatrix) else cls(b) for b in blocks]
        widths = {b.shape[1] for b in blocks}
        if len(widths) > 1:
            raise DimensionMismatch(["vstack blocks have different column counts"])
        if not widths:
            raise ValueError("vstack needs at least one block")
        (n,) = widths
        shape = (sum(b.shape[0] for b in blocks), n)
        return cls._adopt(*_stacked([(b.indptr, b.indices, b.data) for b in blocks], shape), shape)

    @classmethod
    def empty(cls, shape):
        m, n = (operator.index(k) for k in shape)
        if m < 0 or n < 0:
            raise ValueError(f"a matrix shape cannot be negative, got {shape}")
        idx = _index_dtype(m, n)
        return cls._adopt(np.zeros(m + 1, idx), np.zeros(0, idx), np.zeros(0), (m, n))

    def tocsr(self):
        """A ``scipy.sparse.csr_matrix`` of copies of the arrays, so callers
        cannot mutate us; the one method that imports ``scipy.sparse``."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape)

    def toarray(self):
        out = np.zeros(self.shape)
        _sparsetools.csr_todense(*self.shape, self.indptr, self.indices, self.data, out)
        return out

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def _same_shape(shape, actual):
    """Whether a ``shape`` argument asks for nothing but ``actual``."""
    return shape is None or (isinstance(shape, tuple) and shape == actual)


def _dense_csr(dense):
    """The CSR arrays of a 2-D numeric array's nonzeros, in row-major
    order as ``np.nonzero`` finds them, with float64 entries."""
    rows, cols = dense.nonzero()
    m, n = dense.shape
    idx = _index_dtype(m, n, rows.size)
    indptr = np.zeros(m + 1, idx)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return indptr, cols.astype(idx), dense[rows, cols].astype(np.float64, copy=False)


def _stacked(blocks, shape):
    """The CSR arrays (indptr, indices, data) of a matrix of ``shape`` whose
    rows are those of each (indptr, indices, data) block in turn, as
    scipy's vstack forms them: every entry kept as it is."""
    m, n = shape
    idx = _index_dtype(m, n, sum(int(ptr[-1]) for ptr, _, _ in blocks))
    indptr = np.zeros(m + 1, idx)
    np.cumsum(np.concatenate([np.diff(ptr) for ptr, _, _ in blocks]), out=indptr[1:])
    indices = np.concatenate([i[: ptr[-1]] for ptr, i, _ in blocks], dtype=idx)
    data = np.concatenate([d[: ptr[-1]] for ptr, _, d in blocks], dtype=np.float64)
    return indptr, indices, data


def _pruned(array, size):
    """``array[:size]``, copied where that keeps less than half of the
    array, as scipy's ``prune`` does."""
    return array[:size] if 2 * size >= array.size else array[:size].copy()


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


def _in_halves(task, halves):
    """[task(*args) for args in halves]: of two halves the worker thread
    (``_worker``, looked up once per call) runs the second while the caller
    runs the first, or on one CPU the caller runs both in turn; one half
    runs inline."""
    pool = _worker() if len(halves) == 2 else None
    if pool is None:
        return [task(*args) for args in halves]
    first, second = halves
    future = pool.submit(task, *second)
    try:
        done = task(*first)
    finally:
        other = future.result()
    return [done, other]


def _permutation(order, m):
    """``order`` as an intp vector, if it is a permutation of range(m): of
    an integer type (an empty order of any type), each index in range, and
    each once.  Else DimensionMismatch."""
    order = np.asarray(order)
    if order.size == 0 or np.issubdtype(order.dtype, np.integer):
        # a float order is refused, not truncated to rows
        order = order.astype(np.intp, copy=False)
    if (
        order.dtype != np.intp
        or order.shape != (m,)
        or (m and (order.min() < 0 or order.max() >= m))
        or not np.all(np.bincount(order, minlength=m) == 1)
    ):
        raise DimensionMismatch([f"row order is not a permutation of the {m} rows"])
    return order


def _middle_row(cost):
    """The row, neither the first nor past the last, at which ``cost``, a
    running total over the rows from 0 (such as an indptr), reaches half."""
    return min(max(int(np.searchsorted(cost, cost[-1] // 2)), 1), cost.size - 2)


def _scaled_entries(rows, indptr, indices, base, row_scale, col_scale, out):
    """base_ij * row_scale_i * col_scale_j over a block of ``rows``, into
    ``out``, multiplied in that order by scipy's row and column scaling
    kernels; returns ``out``.  ``indptr`` is the block's own, from 0, and
    ``indices``, ``out`` and ``base`` (or a number) hold its entries.  The
    kernels raise no floating-point warning."""
    np.copyto(out, base)
    csr_scale_rows(rows.stop - rows.start, col_scale.size, indptr, indices, out, row_scale[rows])
    csr_scale_columns(rows.stop - rows.start, col_scale.size, indptr, indices, out, col_scale)
    return out


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
    # LAPACK is loaded on first use, as that takes about 10 ms (it brings
    # scipy's own OpenBLAS), and after the first deadline test, so that a
    # solve out of time does not pay it either
    if time.perf_counter() >= deadline:
        return SpectralEstimate(0.0, False, 0)
    lapack = _compiled("scipy.linalg._flapack")  # what scipy.linalg.lapack re-exports
    dstebz, dstein = lapack.dstebz, lapack.dstein

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
