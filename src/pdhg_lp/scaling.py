"""Diagonal preconditioning: a log-mean pass, Ruiz equilibration and
Pock-Chambolle scaling.

A rescaling is stored as positive diagonal vectors (row_scale, col_scale)
such that the solver works with K~ = D1 K D2 where D1 = diag(row_scale) and
D2 = diag(col_scale).  Problem data transforms as

    q~ = D1 q,   c~ = D2 c,   l~ = D2^{-1} l,   u~ = D2^{-1} u

and a scaled solution maps back via x = D2 x~, y = D1 y~.

On a large matrix the solver's working space also reorders the rows: K~ =
P D1 K D2 and q~ = P D1 q, where the permutation P puts rows of equal
length next to each other (``length_order``), and y = D1 P' y~.  scipy's
row kernels run one inner loop per row, and when row lengths vary at random
the CPU mispredicts where each loop ends; grouped, the ends are predictable.

The passes read |K| on K's own row blocks (``SparseMatrix.row_blocks``),
and on two blocks the products' worker thread runs the second block while
the caller runs the first, or on one CPU the caller runs both.  A block's
part of a Ruiz sweep forms |K_ij| * d1_i * d2_j with scipy's row and
column scaling kernels, which multiply in that order, and takes its row
maxima with ``np.maximum.reduceat`` and its column maxima into a vector of
its own; a max is exact, so joining the blocks' maxima gives the bits of
one pass over all of K.  Each row sum runs scipy's row kernel on its block
and adds the row's entries in order from 0, as ``np.bincount`` does.  A
column sum takes entries from both blocks, so it stays one ``np.bincount``
on the caller: split, it would add them in another order.  The worker runs
only scipy's kernels and max reductions, which raise no floating-point
warning; every numpy call that can warn runs on the caller over the whole
array, so the result and the warnings are the same on one CPU and two.
On the n=1e5 PageRank K (8e5 nonzeros, 2-core AMD EPYC, numpy 2.4, scipy
1.17, best of 15) ten sweeps (``ruiz_rescale``) take 27 ms instead of 53 ms
over K's COO triplets, and the default ``combined_rescale`` 39 ms instead
of 72 ms, with the same bits.
"""

import math
import time
from dataclasses import dataclass, replace
from functools import reduce
from typing import NamedTuple

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_scale_columns, csr_scale_rows

from .exceptions import DimensionMismatch, NonPositiveInput, _count
from .sparse import _in_halves, _worker

# The named pipelines combined_rescale builds, and SolverConfig.scaling takes,
# and the default of both.  The log-mean pass makes the default's result
# independent of the rows' scale; a fixed primal weight is not independent of
# scale, so the fixed-weight presets take "ruiz+pc".
SCALING_MODES = ("none", "ruiz+pc", "logmean+ruiz+pc")
DEFAULT_SCALING = "logmean+ruiz+pc"

# The Ruiz sweeps and the Pock-Chambolle exponent of both pipelines: PDLP's
# defaults (Applegate et al., arXiv 2106.04756).
RUIZ_ITERATIONS = 10
PC_ALPHA = 1.0

# A matrix with fewer nonzeros keeps its row order.  Scaled PageRank K on a
# 2-core AMD EPYC (numpy 2.4, scipy 1.17), ordered against not: K x takes
# 16.8 -> 7.7 us at 16k nonzeros and 824 -> 483 us at 800k; K'y gains from
# about 128k on (73 -> 69 us; 843 -> 479 us at 800k).  At 16k the order costs
# 0.14 ms once, repaid in about 16 iterations.  The criterion-8 LPs and the
# benchmark's small LPs have under 1k nonzeros and keep their bits.
ROW_ORDER_MIN_NNZ = 2**14


@dataclass
class ScalingInfo:
    """Diagonal scaling, and the working space's row order: ``row_order[i]``
    is the original row of working row i; None keeps the order."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    row_order: np.ndarray = None

    def __post_init__(self):
        self.row_scale = np.asarray(self.row_scale, dtype=np.float64)
        self.col_scale = np.asarray(self.col_scale, dtype=np.float64)
        if np.any(self.row_scale <= 0) or np.any(self.col_scale <= 0):
            raise NonPositiveInput("scaling factors must be strictly positive")
        if self.row_order is not None:
            self.row_order = np.asarray(self.row_order, dtype=np.intp)
            if not np.array_equal(np.sort(self.row_order), np.arange(self.row_scale.size)):
                raise DimensionMismatch(["row_order is not a permutation of the rows"])

    @classmethod
    def identity(cls, shape):
        return cls(np.ones(shape[0]), np.ones(shape[1]))

    @property
    def is_identity(self):
        return self.row_order is None and np.all(self.row_scale == 1.0) and np.all(self.col_scale == 1.0)


def length_order(matrix, m1):
    """The working space's row order for a matrix whose first ``m1`` rows
    are sign-constrained: nonzeros per row, descending, by a stable sort
    within rows [0, m1) and within rows [m1, m), so the m1 block stays
    first.  None (the identity) below ROW_ORDER_MIN_NNZ nonzeros and when
    each block is already in that order."""
    if matrix.nnz < ROW_ORDER_MIN_NNZ:
        return None
    lengths = matrix.row_lengths()
    blocks = (lengths[:m1], lengths[m1:])
    if all(np.all(b[:-1] >= b[1:]) for b in blocks):
        return None
    return np.concatenate([np.argsort(-blocks[0], kind="stable"), m1 + np.argsort(-blocks[1], kind="stable")])


def ruiz_rescale(matrix, num_iters=RUIZ_ITERATIONS):
    """Iterative Ruiz equilibration: each sweep divides every row and
    column by the square root of its infinity norm, both norms measured on
    the current rescaled matrix; empty rows/columns keep scale 1.  Returns
    the accumulated ScalingInfo."""
    num_iters = _count("num_iters", num_iters)
    return ScalingInfo(*_ruiz_scales(_abs_entries(matrix), num_iters, False, math.inf))


class _Block(NamedTuple):
    """One row block of |M| as a CSR matrix of its own: ``rows`` and
    ``entries`` are the slices of M's rows and nonzeros it holds, ``indptr``
    starts at 0, ``indices`` and ``vals`` (the |M_ij|) are views of M's
    arrays, and the nonempty rows ``filled`` start at ``starts``.  A sweep
    leaves the block's column maxima in ``col_max``: made once, on the
    calling thread, it keeps the worker thread from holding a vector of its
    own (on the n=1e5 PageRank, 2 MB of the solve's peak memory)."""

    rows: slice
    entries: slice
    indptr: np.ndarray
    indices: np.ndarray
    vals: np.ndarray
    filled: np.ndarray
    starts: np.ndarray
    col_max: np.ndarray


class _Entries(NamedTuple):
    """|M| row by row, whole and on M's row blocks: the column ``indices``,
    the values ``vals`` and each row's number of entries, ``lengths``."""

    shape: tuple
    indices: np.ndarray
    vals: np.ndarray
    lengths: np.ndarray
    blocks: tuple


def _abs_entries(matrix):
    """The _Entries of |M| on ``matrix.row_blocks()``, without a copy of
    M's index arrays."""
    row_blocks = matrix.row_blocks()
    vals = np.abs(row_blocks[0][3])
    n = matrix.shape[1]
    blocks = []
    for rows, indptr, indices, _ in row_blocks:
        entries = slice(int(indptr[0]), int(indptr[-1]))
        local = indptr - indptr[0]
        filled = np.flatnonzero(local[1:] > local[:-1])
        blocks.append(
            _Block(rows, entries, local, indices[entries], vals[entries], filled + rows.start, local[filled], np.empty(n))
        )
    return _Entries(matrix.shape, row_blocks[0][2], vals, matrix.row_lengths(), tuple(blocks))


def _on_blocks(task, blocks, *args):
    """[task(block, *args) for block in blocks]: two blocks run on two
    threads (``sparse._in_halves``), one inline."""
    return _in_halves(_worker() if len(blocks) > 1 else None, task, [(block, *args) for block in blocks])


def _ruiz_scales(entries, num_iters, log_mean, deadline):
    """Ruiz's (d1, d2) from the _Entries of |M|: ``num_iters`` sweeps, each
    begun only before ``deadline``, from the log-mean pass if ``log_mean``."""
    m, n = entries.shape
    d1 = np.ones(m)
    d2 = np.ones(n)
    if log_mean:
        d1, d2 = _log_mean_pass(entries)
    cur = np.empty(entries.vals.size)
    for _ in range(num_iters):
        if time.perf_counter() >= deadline:
            break
        d1, d2 = _ruiz_sweep(entries, d1, d2, cur)
    return d1, d2


def _log_mean_pass(entries):
    """One block step of Curtis-Reid scaling (Curtis & Reid, IMA J. Appl.
    Math. 10, 1972) over the _Entries of |M|: (d1, d2) = 2^-(row shift),
    2^-(column shift), where a row's shift is the mean of log2|M_ij| over
    its nonzeros, and a column's the mean of what is left after the row
    shifts.  A factor s on row i moves its shift by log2 s, so the pass
    takes out any row scale; empty rows and columns keep 1.

    The whole part of a row's shift is taken from the binary exponents
    first, in exact arithmetic, so that a power-of-two row scale moves d1
    by exactly that power and leaves every other bit of the pass alone."""
    n = entries.shape[1]
    lengths, vals = entries.lengths, entries.vals
    per_row = np.maximum(lengths, 1)
    whole = np.floor(_row_sums(entries, np.frexp(vals)[1].astype(np.float64)) / per_row).astype(np.int32)
    logs = np.ldexp(vals, np.repeat(-whole, lengths))
    np.log2(logs, out=logs)
    row_shift = _row_sums(entries, logs) / per_row
    logs -= np.repeat(row_shift, lengths)
    col_shift = np.bincount(entries.indices, logs, n) / np.maximum(np.bincount(entries.indices, minlength=n), 1)
    return np.ldexp(np.exp2(-row_shift), -whole), np.exp2(-col_shift)


def _row_sums(entries, values):
    """Each row's sum of ``values`` (one per entry), added in entry order
    from 0, as ``np.bincount`` adds them: scipy's row kernel times a vector
    of ones on each block."""
    m, n = entries.shape
    out = np.zeros(m)
    _on_blocks(_row_sums_half, entries.blocks, n, values, np.ones(n), out)
    return out


def _row_sums_half(block, n, values, ones, out):
    """A block's rows' sums of ``values`` into ``out``."""
    csr_matvec(
        block.rows.stop - block.rows.start, n, block.indptr, block.indices, values[block.entries], ones, out[block.rows]
    )


def _ruiz_sweep(entries, d1, d2, cur):
    """One Ruiz sweep over the _Entries of |M|, with ``cur`` as scratch:
    the new (d1, d2)."""
    row_inf = np.zeros(d1.size)
    _on_blocks(_sweep_half, entries.blocks, d1, d2, cur, row_inf)
    col_inf = reduce(np.maximum, [block.col_max for block in entries.blocks])
    d1 = np.where(row_inf > 0, d1 / np.sqrt(np.maximum(row_inf, 1e-300)), d1)
    d2 = np.where(col_inf > 0, d2 / np.sqrt(np.maximum(col_inf, 1e-300)), d2)
    return d1, d2


def _sweep_half(block, d1, d2, cur, row_inf):
    """A block's part of a Ruiz sweep: its entries |M_ij| * d1_i * d2_j in
    ``cur``, their row maxima into ``row_inf`` and their column maxima into
    the block's ``col_max``.

    ``np.maximum.at`` holds the GIL, so the first block (the caller's)
    scatters its columns before it reduces its rows and the second block
    after, and the two scatters overlap less.  ``np.maximum.reduceat``
    holds it only when given ``out``, so it is not.  ``np.maximum.at``
    alone warns of a NaN, here on neither thread."""
    part = _block_products(block, block.vals, d1, d2, cur)
    block.col_max.fill(0.0)
    first = block.rows.start == 0
    if not first:
        row_inf[block.filled] = np.maximum.reduceat(part, block.starts)
    with np.errstate(invalid="ignore"):
        np.maximum.at(block.col_max, block.indices, part)
    if first:
        row_inf[block.filled] = np.maximum.reduceat(part, block.starts)


def _block_products(block, base, d1, d2, cur):
    """``base`` (the block's |M_ij|, or 1) * d1_i * d2_j, multiplied in
    that order by scipy's row and column scaling kernels, into the block's
    entries of ``cur``; returns them.  No floating-point warning."""
    nrows = block.rows.stop - block.rows.start
    part = cur[block.entries]
    np.copyto(part, base)
    csr_scale_rows(nrows, d2.size, block.indptr, block.indices, part, d1[block.rows])
    csr_scale_columns(nrows, d2.size, block.indptr, block.indices, part, d2)
    return part


def _pock_chambolle_scales(entries, d1, d2, alpha):
    """Pock-Chambolle's D1_ii = (sum_j |A_ij|^(2-alpha))^(-1/2) and D2_jj =
    (sum_i |A_ij|^alpha)^(-1/2), 1 where empty, for A = diag(d1) M diag(d2)
    from the _Entries of |M|: each |A_ij| is (d1_i * d2_j) * |M_ij|, the
    bits of ``SparseMatrix.scaled``'s entries, summed row by row as there.
    At alpha = 1 both sums add the |A_ij| themselves."""
    cur = np.empty(entries.vals.size)
    _on_blocks(_block_products, entries.blocks, 1.0, d1, d2, cur)
    cur *= entries.vals
    row_w, col_w = (cur, cur) if alpha == 1 else (cur ** (2.0 - alpha), cur**alpha)
    row_sum = _row_sums(entries, row_w)
    col_sum = np.bincount(entries.indices, col_w, d2.size)
    d1 = np.where(row_sum > 0, 1.0 / np.sqrt(np.maximum(row_sum, 1e-300)), 1.0)
    d2 = np.where(col_sum > 0, 1.0 / np.sqrt(np.maximum(col_sum, 1e-300)), 1.0)
    return d1, d2


def combined_rescale(matrix, mode=DEFAULT_SCALING, *, m1=None, deadline=math.inf):
    """Build the scaling for a named pipeline.

    ``ruiz+pc`` runs RUIZ_ITERATIONS Ruiz sweeps and then one
    Pock-Chambolle pass (PC_ALPHA) on the Ruiz-scaled matrix, composing
    both into a single ScalingInfo; ``logmean+ruiz+pc`` runs the log-mean
    pass first.  All passes read K's entries on its row blocks (module
    docstring), without a scaled copy of K.  Given ``m1``, the number of
    sign-constrained rows, the result also carries ``length_order(matrix,
    m1)``; without it the rows keep their order.  Here alone the scaling
    runs out of time: a pass, sweep or row order starts only before
    ``deadline`` (a ``time.perf_counter()`` value), and past it the result
    is the identity.
    """
    if mode not in SCALING_MODES:
        raise NonPositiveInput(f"unknown scaling mode {mode!r}")
    scaling = ScalingInfo.identity(matrix.shape)
    if mode != "none" and matrix.nnz and time.perf_counter() < deadline:
        entries = _abs_entries(matrix)
        d1, d2 = _ruiz_scales(entries, RUIZ_ITERATIONS, mode.startswith("logmean"), deadline)
        if time.perf_counter() < deadline:
            e1, e2 = _pock_chambolle_scales(entries, d1, d2, PC_ALPHA)
            scaling = ScalingInfo(d1 * e1, d2 * e2)
    if m1 is not None and time.perf_counter() < deadline:
        scaling.row_order = length_order(matrix, m1)
    if time.perf_counter() >= deadline:
        return ScalingInfo.identity(matrix.shape)
    return scaling


def apply_scaling(saddle, scaling):
    """Return the rescaled saddle form K~ = P D1 K D2, q~ = P D1 q etc.

    Infinite bounds stay infinite because the diagonal entries are positive
    and finite.  A row order must keep the first m1 rows first.
    """
    if scaling.row_scale.shape != (saddle.num_dual,) or (
        scaling.col_scale.shape != (saddle.num_primal,)
    ):
        raise DimensionMismatch(["scaling does not match saddle dimensions"])
    if scaling.is_identity:
        return replace(saddle)
    order = scaling.row_order
    q = saddle.q * scaling.row_scale
    if order is not None:
        if np.any(order[: saddle.m1] >= saddle.m1):
            raise DimensionMismatch(["row_order moves a row across the m1 boundary"])
        q = q[order]
    k = saddle.K.scaled(scaling.row_scale, scaling.col_scale, order)
    return replace(
        saddle,
        K=k,
        q=q,
        c=saddle.c * scaling.col_scale,
        l=saddle.l / scaling.col_scale,
        u=saddle.u / scaling.col_scale,
    )


def unscale_solution(x_scaled, y_scaled, scaling):
    """Map a point from the scaled space back to original variables (y's
    entries back to their original rows); an entry that overflows becomes
    inf without a warning."""
    order = scaling.row_order
    if order is not None:
        y_working = y_scaled
        y_scaled = np.empty_like(y_working)
        y_scaled[order] = y_working
    with np.errstate(over="ignore"):
        return x_scaled * scaling.col_scale, y_scaled * scaling.row_scale
