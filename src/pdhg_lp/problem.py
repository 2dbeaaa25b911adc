"""Problem data model.

An LP is stored as

    minimize    c'x  (+ offset)
    subject to  G x >= h
                A x  = b
                l <= x <= u

Maximization problems are negated to this form at ingestion;
``objective_sign`` remembers the flip so reported objective values refer to
the original problem.  Instances are treated as immutable after
construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, InconsistentBounds, NonFiniteData, ValidationError
from .sparse import SparseMatrix


def _as_vector(v, name):
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch([f"{name} must be one-dimensional, got shape {arr.shape}"])
    return arr


def _as_matrix(m, shape):
    if m is None:
        return SparseMatrix.empty(shape)
    if isinstance(m, SparseMatrix):
        return m
    return SparseMatrix(m)


@dataclass
class LpProblem:
    """Validated LP data.  Build with keyword arguments; missing pieces
    default to "absent" (empty constraint blocks, bounds 0 <= x)."""

    c: np.ndarray
    ineq_matrix: SparseMatrix = None
    ineq_rhs: np.ndarray = None
    eq_matrix: SparseMatrix = None
    eq_rhs: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None
    objective_offset: float = 0.0
    objective_sign: int = 1
    name: str = ""
    variable_names: list = field(default=None, repr=False)
    constraint_names: list = field(default=None, repr=False)

    def __post_init__(self):
        self.c = _as_vector(self.c, "c")
        n = self.c.shape[0]
        self.ineq_rhs = (
            _as_vector(self.ineq_rhs, "ineq_rhs") if self.ineq_rhs is not None else np.zeros(0)
        )
        self.eq_rhs = _as_vector(self.eq_rhs, "eq_rhs") if self.eq_rhs is not None else np.zeros(0)
        self.ineq_matrix = _as_matrix(self.ineq_matrix, (self.ineq_rhs.shape[0], n))
        self.eq_matrix = _as_matrix(self.eq_matrix, (self.eq_rhs.shape[0], n))
        self.lower = _as_vector(self.lower, "lower") if self.lower is not None else np.zeros(n)
        self.upper = (
            _as_vector(self.upper, "upper") if self.upper is not None else np.full(n, np.inf)
        )
        # a scalar bound applies to every variable
        if self.lower.shape[0] == 1 and n > 1:
            self.lower = np.full(n, self.lower[0])
        if self.upper.shape[0] == 1 and n > 1:
            self.upper = np.full(n, self.upper[0])
        self.objective_offset = float(self.objective_offset)
        self.objective_sign = int(self.objective_sign)

    @property
    def num_variables(self):
        return self.c.shape[0]

    @property
    def num_inequalities(self):
        return self.ineq_rhs.shape[0]

    @property
    def num_equalities(self):
        return self.eq_rhs.shape[0]

    @property
    def nnz(self):
        return self.ineq_matrix.nnz + self.eq_matrix.nnz


def validate(problem):
    """Check dimensions, finiteness and bound consistency.

    Returns the problem unchanged on success.  On failure raises the most
    specific error that applies, carrying *all* violations of that kind (and
    any of the less specific kinds collected along the way); an
    ``objective_sign`` other than 1 or -1 is the least specific, a plain
    ValidationError.
    """
    dim, nonfinite, bounds, sign = [], [], [], []
    n = problem.num_variables

    def check_len(vec, name, expected):
        if vec.shape[0] != expected:
            dim.append(f"{name} has length {vec.shape[0]}, expected {expected}")

    check_len(problem.lower, "lower", n)
    check_len(problem.upper, "upper", n)
    m1, m2 = problem.num_inequalities, problem.num_equalities
    if problem.ineq_matrix.shape != (m1, n):
        dim.append(
            f"ineq_matrix has shape {problem.ineq_matrix.shape}, expected {(m1, n)}"
        )
    if problem.eq_matrix.shape != (m2, n):
        dim.append(f"eq_matrix has shape {problem.eq_matrix.shape}, expected {(m2, n)}")
    if problem.variable_names is not None and len(problem.variable_names) != n:
        dim.append(f"variable_names has length {len(problem.variable_names)}, expected {n}")
    if problem.constraint_names is not None and len(problem.constraint_names) != m1 + m2:
        dim.append(f"constraint_names has length {len(problem.constraint_names)}, expected {m1 + m2}")
    if problem.objective_sign not in (1, -1):
        sign.append(f"objective_sign is {problem.objective_sign}, expected 1 or -1")

    if not np.all(np.isfinite(problem.c)):
        nonfinite.append("c contains non-finite entries")
    if not np.all(np.isfinite(problem.ineq_rhs)):
        nonfinite.append("ineq_rhs contains non-finite entries")
    if not np.all(np.isfinite(problem.eq_rhs)):
        nonfinite.append("eq_rhs contains non-finite entries")
    # lower may be -inf, upper +inf, but never NaN or the opposite infinity
    if np.any(np.isnan(problem.lower)) or np.any(problem.lower == np.inf):
        nonfinite.append("lower contains NaN or +inf entries")
    if np.any(np.isnan(problem.upper)) or np.any(problem.upper == -np.inf):
        nonfinite.append("upper contains NaN or -inf entries")

    if problem.lower.shape == problem.upper.shape == (n,):
        bad = np.where(problem.lower > problem.upper)[0]
        for i in bad[:10]:
            bounds.append(
                f"lower[{i}]={problem.lower[i]!r} exceeds upper[{i}]={problem.upper[i]!r}"
            )
        if bad.shape[0] > 10:
            bounds.append(f"... and {bad.shape[0] - 10} more crossed bounds")

    if dim:
        raise DimensionMismatch(dim + nonfinite + bounds + sign)
    if nonfinite:
        raise NonFiniteData(nonfinite + bounds + sign)
    if bounds:
        raise InconsistentBounds(bounds + sign)
    if sign:
        raise ValidationError(sign)
    return problem


@dataclass
class SaddleForm:
    """The stacked saddle-point view min_x max_y c'x - y'Kx + q'y.

    K holds the inequality block on top of the equality block; the first
    ``m1`` dual variables are sign constrained (y_i >= 0).
    """

    K: SparseMatrix
    q: np.ndarray
    m1: int
    c: np.ndarray
    l: np.ndarray
    u: np.ndarray
    objective_offset: float = 0.0
    objective_sign: int = 1

    @property
    def num_primal(self):
        return self.c.shape[0]

    @property
    def num_dual(self):
        return self.q.shape[0]


def to_saddle(problem):
    """Stack [G; A] into a single saddle-point form."""
    k = SparseMatrix.vstack([problem.ineq_matrix, problem.eq_matrix])
    q = np.concatenate([problem.ineq_rhs, problem.eq_rhs])
    return SaddleForm(
        K=k,
        q=q,
        m1=problem.num_inequalities,
        c=problem.c.copy(),
        l=problem.lower.copy(),
        u=problem.upper.copy(),
        objective_offset=problem.objective_offset,
        objective_sign=problem.objective_sign,
    )


def lagrangian(saddle, x, y):
    """L(x, y) = c'x - y'Kx + q'y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (saddle.num_primal,) or y.shape != (saddle.num_dual,):
        raise DimensionMismatch(
            [
                f"lagrangian expected shapes {(saddle.num_primal,)} and"
                f" {(saddle.num_dual,)}, got {x.shape} and {y.shape}"
            ]
        )
    return float(saddle.c @ x - y @ saddle.K.matvec(x) + saddle.q @ y)
