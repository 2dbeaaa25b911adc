"""Diagonal preconditioning: Ruiz equilibration and Pock-Chambolle scaling.

A rescaling is stored as positive diagonal vectors (row_scale, col_scale)
such that the solver works with K~ = D1 K D2 where D1 = diag(row_scale) and
D2 = diag(col_scale).  Problem data transforms as

    q~ = D1 q,   c~ = D2 c,   l~ = D2^{-1} l,   u~ = D2^{-1} u

and a scaled solution maps back via x = D2 x~, y = D1 y~.
"""

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, NonPositiveInput
from .sparse import SparseMatrix

# The named pipelines combined_rescale builds, and SolverConfig.scaling takes.
SCALING_MODES = ("none", "ruiz", "pc", "ruiz+pc")


@dataclass
class ScalingInfo:
    row_scale: np.ndarray
    col_scale: np.ndarray

    def __post_init__(self):
        self.row_scale = np.asarray(self.row_scale, dtype=np.float64)
        self.col_scale = np.asarray(self.col_scale, dtype=np.float64)
        if np.any(self.row_scale <= 0) or np.any(self.col_scale <= 0):
            raise NonPositiveInput("scaling factors must be strictly positive")

    @classmethod
    def identity(cls, shape):
        return cls(np.ones(shape[0]), np.ones(shape[1]))

    @property
    def is_identity(self):
        return np.all(self.row_scale == 1.0) and np.all(self.col_scale == 1.0)

    def compose(self, other):
        """Scaling equivalent to applying ``self`` first, then ``other``."""
        if self.row_scale.shape != other.row_scale.shape or (
            self.col_scale.shape != other.col_scale.shape
        ):
            raise DimensionMismatch(["cannot compose scalings of different shapes"])
        return ScalingInfo(self.row_scale * other.row_scale, self.col_scale * other.col_scale)


def ruiz_rescale(matrix, num_iters=10):
    """Iterative Ruiz equilibration.

    Each sweep divides every row and column by the square root of its
    infinity norm, both norms measured on the current rescaled matrix.
    Empty rows/columns keep scale 1.  Returns the accumulated ScalingInfo.
    """
    if num_iters < 0:
        raise NonPositiveInput("num_iters must be >= 0")
    m, n = matrix.shape
    d1 = np.ones(m)
    d2 = np.ones(n)
    if matrix.nnz == 0 or num_iters == 0:
        return ScalingInfo(d1, d2)
    coo = matrix.tocoo()
    rows, cols, vals = coo.row, coo.col, np.abs(coo.data)
    for _ in range(num_iters):
        cur = vals * d1[rows] * d2[cols]
        row_inf = np.zeros(m)
        np.maximum.at(row_inf, rows, cur)
        col_inf = np.zeros(n)
        np.maximum.at(col_inf, cols, cur)
        d1 = np.where(row_inf > 0, d1 / np.sqrt(np.maximum(row_inf, 1e-300)), d1)
        d2 = np.where(col_inf > 0, d2 / np.sqrt(np.maximum(col_inf, 1e-300)), d2)
    return ScalingInfo(d1, d2)


def pock_chambolle_rescale(matrix, alpha=1.0):
    """Single-pass Pock-Chambolle diagonal scaling.

    D1_ii = (sum_j |K_ij|^(2-alpha))^(-1/2),
    D2_jj = (sum_i |K_ij|^alpha)^(-1/2);
    empty rows/columns get scale 1.
    """
    if not 0.0 <= alpha <= 2.0:
        raise NonPositiveInput(f"alpha must lie in [0, 2], got {alpha}")
    row_sum = matrix.row_power_sum(2.0 - alpha)
    col_sum = matrix.col_power_sum(alpha)
    d1 = np.where(row_sum > 0, 1.0 / np.sqrt(np.maximum(row_sum, 1e-300)), 1.0)
    d2 = np.where(col_sum > 0, 1.0 / np.sqrt(np.maximum(col_sum, 1e-300)), 1.0)
    return ScalingInfo(d1, d2)


def combined_rescale(matrix, mode="ruiz+pc", ruiz_iters=10, pc_alpha=1.0):
    """Build the scaling for a named pipeline.

    ``ruiz+pc`` runs Ruiz sweeps and then one Pock-Chambolle pass on the
    Ruiz-scaled matrix, composing both into a single ScalingInfo.
    """
    if mode not in SCALING_MODES:
        raise NonPositiveInput(f"unknown scaling mode {mode!r}")
    if mode == "none":
        return ScalingInfo.identity(matrix.shape)
    if mode == "ruiz":
        return ruiz_rescale(matrix, ruiz_iters)
    if mode == "pc":
        return pock_chambolle_rescale(matrix, pc_alpha)
    first = ruiz_rescale(matrix, ruiz_iters)
    scaled = matrix.scaled(first.row_scale, first.col_scale)
    second = pock_chambolle_rescale(scaled, pc_alpha)
    return first.compose(second)


def apply_scaling(saddle, scaling):
    """Return the rescaled saddle form K~ = D1 K D2 etc.

    Infinite bounds stay infinite because the diagonal entries are positive
    and finite.
    """
    if scaling.row_scale.shape != (saddle.num_dual,) or (
        scaling.col_scale.shape != (saddle.num_primal,)
    ):
        raise DimensionMismatch(["scaling does not match saddle dimensions"])
    if scaling.is_identity:
        return replace(saddle)
    k = saddle.K.scaled(scaling.row_scale, scaling.col_scale)
    return replace(
        saddle,
        K=k,
        q=saddle.q * scaling.row_scale,
        c=saddle.c * scaling.col_scale,
        l=saddle.l / scaling.col_scale,
        u=saddle.u / scaling.col_scale,
    )


def unscale_solution(x_scaled, y_scaled, scaling):
    """Map a point from the scaled space back to original variables; an
    entry that overflows becomes inf without a warning."""
    with np.errstate(over="ignore"):
        return x_scaled * scaling.col_scale, y_scaled * scaling.row_scale
