"""Deterministic LP instance generators.

The PageRank instance encodes the stationary distribution of a damped
random surfer on a Barabasi-Albert preferential-attachment graph as an LP:

    find x    s.t.  x_i >= lambda (S x)_i + (1 - lambda)/n   for all i,
                    sum x = 1,  x >= 0,

with S the column-normalized adjacency matrix.  Every vertex of the graph
has positive degree, so S is well defined.  The objective is zero; any
feasible point is the PageRank vector.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidGeneratorSpec
from .problem import LpProblem
from .sparse import SparseMatrix, csr_minus_csr, csr_scale_columns


@dataclass(frozen=True)
class PagerankSpec:
    num_nodes: int
    attach_degree: int = 3
    damping: float = 0.85
    seed: int = 0

    def validate(self):
        for field in ("num_nodes", "attach_degree", "seed"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidGeneratorSpec(f"{field} must be an integer, got {value!r}")
        if isinstance(self.damping, bool) or not isinstance(self.damping, numbers.Real):
            raise InvalidGeneratorSpec(f"damping must be a number, got {self.damping!r}")
        if self.seed < 0:
            raise InvalidGeneratorSpec(f"seed must be non-negative, got {self.seed}")
        if self.num_nodes < 2:
            raise InvalidGeneratorSpec("num_nodes must be at least 2")
        if not 1 <= self.attach_degree < self.num_nodes:
            raise InvalidGeneratorSpec("attach_degree must be in [1, num_nodes)")
        if not 0.0 < self.damping < 1.0:
            raise InvalidGeneratorSpec("damping must lie strictly between 0 and 1")
        return self


def barabasi_albert_edges(num_nodes, attach_degree, seed=0):
    """Edge list of a preferential-attachment graph, as an (E, 2) int64 array
    of (newcomer, target) rows.

    Starts from ``attach_degree`` isolated vertices; each newcomer attaches
    to ``attach_degree`` distinct existing vertices sampled proportionally
    to degree (the first newcomer connects to all seed vertices, which have
    degree zero).  Deterministic for a fixed seed.

    Sampling is degree-proportional because it picks a uniform position of
    the list of edge endpoints, which grows by (newcomer, target) pairs: the
    endpoint list of newcomer k (vertex d + k) has 2dk entries, and position
    p holds vertex d + p // 2d when p is even, else target (p % 2d) // 2 of
    newcomer p // 2d.  Newcomer k draws positions until it has d distinct
    vertices, in order of first occurrence.  A chunk of newcomers draws d
    positions each in one call, which consumes the random stream exactly as
    one call per draw would.  At the first newcomer whose d draws repeat a
    vertex, the stream is rewound to the chunk start, the newcomers before
    it are redrawn, and that newcomer draws one position at a time.
    """
    d = attach_degree
    if d < 1 or num_nodes <= d:
        return np.empty((0, 2), dtype=np.int64)
    count = num_nodes - d  # newcomers
    targets = np.empty((count, d), dtype=np.int64)
    targets[0] = np.arange(d)
    rng = np.random.default_rng(seed)
    k = 1
    while k < count:
        stop = min(count, k + max(16, k // 8))  # chunks grow with k, as repeats thin out
        state = rng.bit_generator.state
        bounds = np.repeat(2 * d * np.arange(k, stop, dtype=np.int64), d)
        owner, offset = np.divmod(rng.integers(0, bounds).reshape(-1, d), 2 * d)
        rows = targets[k:stop]
        odd = offset % 2 == 1
        rows[...] = np.where(odd, -1, d + owner)
        # a target position may name an earlier newcomer of this chunk, so
        # resolve by lookup until no -1 is left
        pending = np.flatnonzero(odd)
        src_owner, src_slot = owner[odd], offset[odd] // 2
        while pending.size:
            found = targets[src_owner, src_slot]
            hit = found >= 0
            rows.flat[pending[hit]] = found[hit]
            pending, src_owner, src_slot = pending[~hit], src_owner[~hit], src_slot[~hit]
        ordered = np.sort(rows, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if not repeats.size:
            k = stop
            continue
        accepted = int(repeats[0])
        rng.bit_generator.state = state
        rng.integers(0, bounds[: accepted * d])
        k += accepted
        chosen = {}
        while len(chosen) < d:
            p_owner, p_offset = divmod(int(rng.integers(2 * d * k)), 2 * d)
            chosen[d + p_owner if p_offset % 2 == 0 else int(targets[p_owner, p_offset // 2])] = None
        targets[k] = list(chosen)
        k += 1
    return np.column_stack([np.repeat(np.arange(d, d + count, dtype=np.int64), d), targets.ravel()])


def generate_pagerank(spec):
    """Build the PageRank LP for a PagerankSpec."""
    spec.validate()
    n = spec.num_nodes
    edges = barabasi_albert_edges(n, spec.attach_degree, spec.seed)
    rows, cols = edges[:, 0], edges[:, 1]
    adj = SparseMatrix._from_coo(
        np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.ones(2 * len(edges)), (n, n)
    )
    degree = np.bincount(adj.indices, weights=adj.data, minlength=n)
    if np.any(degree == 0):
        raise InvalidGeneratorSpec("graph has an isolated vertex; cannot column-normalize")
    # K = I - damping * adj diag(1/degree), with the kernels and in the order
    # of scipy's eye(n) - damping * (adj @ diags(1 / degree)): each entry is
    # 0 - damping * (1 * (1/degree_j)), and the diagonal 1 - 0
    walk = adj.data.copy()
    csr_scale_columns(n, n, adj.indptr, adj.indices, walk, 1.0 / degree)
    walk *= spec.damping
    eye = np.arange(n + 1, dtype=adj.indices.dtype)
    size = n + adj.nnz
    indptr, indices, data = np.empty(n + 1, eye.dtype), np.empty(size, eye.dtype), np.empty(size)
    csr_minus_csr(n, n, eye, eye[:n], np.ones(n), adj.indptr, adj.indices, walk, indptr, indices, data)
    ineq = SparseMatrix._adopt(indptr, indices, data, (n, n))
    ones_row = SparseMatrix._adopt(np.array([0, n], eye.dtype), eye[:n], np.ones(n), (1, n))
    problem = LpProblem(
        c=np.zeros(n),
        ineq_matrix=ineq,
        ineq_rhs=np.full(n, (1.0 - spec.damping) / n),
        eq_matrix=ones_row,
        eq_rhs=np.array([1.0]),
        lower=np.zeros(n),
        upper=np.full(n, np.inf),
        name=f"pagerank_n{n}_d{spec.attach_degree}_seed{spec.seed}",
    )
    return problem


def generate_bilinear_toy():
    """The one-variable LP {min 0 : x = 3, x >= 0} whose saddle dynamics are
    a pure rotation around (3, 0)."""
    return LpProblem(
        c=np.array([0.0]),
        eq_matrix=SparseMatrix(np.array([[1.0]])),
        eq_rhs=np.array([3.0]),
        lower=np.array([0.0]),
        upper=np.array([np.inf]),
        name="bilinear_toy",
    )


def generate_primal_infeasible_toy():
    """{min 0 : x = -1, x >= 0}; the dual ray y = -1 certifies infeasibility."""
    return LpProblem(
        c=np.array([0.0]),
        eq_matrix=SparseMatrix(np.array([[1.0]])),
        eq_rhs=np.array([-1.0]),
        lower=np.array([0.0]),
        upper=np.array([np.inf]),
        name="primal_infeasible_toy",
    )


def generate_dual_infeasible_toy():
    """{min -x : x >= 0, x <= inf} with a harmless inequality row; the primal
    ray d = 1 drives the objective to -inf."""
    return LpProblem(
        c=np.array([-1.0]),
        ineq_matrix=SparseMatrix(np.array([[1.0]])),
        ineq_rhs=np.array([0.0]),
        lower=np.array([0.0]),
        upper=np.array([np.inf]),
        name="dual_infeasible_toy",
    )
