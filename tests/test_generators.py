import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

import pdhg_lp as pl
from pdhg_lp import PagerankSpec, barabasi_albert_edges, generate_pagerank


def reference_edges(num_nodes, attach_degree, seed=0):
    """The sampler as one draw per call: the definition the vectorized
    sampler must reproduce edge for edge."""
    d = attach_degree
    rng = np.random.default_rng(seed)
    edges = []
    repeated = []  # one entry per edge endpoint; sampling from it is degree-proportional
    for new in range(d, num_nodes):
        if not repeated:
            targets = list(range(d))
        else:
            chosen = {}
            while len(chosen) < d:
                pick = repeated[rng.integers(len(repeated))]
                chosen[pick] = None
            targets = list(chosen)
        for t in targets:
            edges.append((new, t))
            repeated.append(new)
            repeated.append(t)
    return edges


def md5(*arrays):
    digest = hashlib.md5()
    for a in arrays:
        a = np.asarray(a)
        digest.update((a.astype(np.int64) if a.dtype.kind in "iu" else a).tobytes())
    return digest.hexdigest()


class TestGraph:
    def test_edge_count(self):
        # every vertex after the d seeds brings exactly d edges
        for n, d in ((10, 3), (25, 2), (50, 5)):
            edges = barabasi_albert_edges(n, d, seed=0)
            assert len(edges) == d * (n - d)

    def test_first_newcomer_connects_to_all_seeds(self):
        edges = barabasi_albert_edges(10, 3, seed=4)
        first = [t for (s, t) in edges if s == 3]
        assert sorted(first) == [0, 1, 2]

    def test_targets_distinct_and_existing(self):
        edges = barabasi_albert_edges(40, 3, seed=7)
        by_source = {}
        for s, t in edges:
            by_source.setdefault(s, []).append(t)
            assert t < s  # attaches only to already-present vertices
        for s, targets in by_source.items():
            assert len(targets) == len(set(targets)) == 3

    def test_deterministic(self):
        a = barabasi_albert_edges(30, 3, seed=12)
        b = barabasi_albert_edges(30, 3, seed=12)
        assert np.array_equal(a, b)
        c = barabasi_albert_edges(30, 3, seed=13)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("num_nodes", [1, "d", "d+1", "2d", 100, 3000])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_matches_one_draw_per_call(self, d, num_nodes, seed):
        n = {"d": d, "d+1": d + 1, "2d": 2 * d}.get(num_nodes, num_nodes)
        edges = barabasi_albert_edges(n, d, seed)
        assert edges.dtype == np.int64
        expected = np.array(reference_edges(n, d, seed), dtype=np.int64).reshape(-1, 2)
        np.testing.assert_array_equal(edges, expected)

    def test_matches_when_many_newcomers_redraw(self, monkeypatch):
        # count the reference's draws per bound: newcomer k draws with bound
        # 2dk, so a bound drawn more than d times marks a newcomer that drew
        # a vertex twice, the case the sampler replays one draw at a time
        bounds = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, high):
                bounds.append(high)
                return self.rng.integers(high)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        expected = np.array(reference_edges(3000, 7, seed=0))
        monkeypatch.undo()
        _, draws = np.unique(bounds, return_counts=True)
        assert np.count_nonzero(draws > 7) == 160
        np.testing.assert_array_equal(barabasi_albert_edges(3000, 7, seed=0), expected)

    def test_no_newcomers_give_no_edges(self):
        for n, d in ((0, 3), (2, 3), (3, 3), (5, 0), (5, -1)):
            edges = barabasi_albert_edges(n, d, seed=0)
            assert edges.shape == (0, 2) and edges.dtype == np.int64
            assert reference_edges(n, d, seed=0) == []


class TestPagerankProblem:
    def test_nonzero_count_formula(self):
        # rows I - lambda*S' contribute n + 2*3*(n-3) entries, the sum row n:
        # 8n - 18 in total for attachment degree 3
        for n in (10, 50, 100):
            problem = generate_pagerank(PagerankSpec(num_nodes=n))
            assert problem.nnz == 8 * n - 18
        assert generate_pagerank(PagerankSpec(num_nodes=10)).nnz == 62

    def test_structure(self):
        spec = PagerankSpec(num_nodes=12, seed=3)
        problem = generate_pagerank(spec)
        n = spec.num_nodes
        assert problem.num_inequalities == n
        assert problem.num_equalities == 1
        np.testing.assert_allclose(problem.ineq_rhs, (1 - 0.85) / n)
        np.testing.assert_array_equal(problem.eq_matrix.toarray(), np.ones((1, n)))
        np.testing.assert_array_equal(problem.eq_rhs, [1.0])
        np.testing.assert_array_equal(problem.lower, np.zeros(n))
        assert np.all(np.isinf(problem.upper))
        np.testing.assert_array_equal(problem.c, np.zeros(n))
        assert problem.name == "pagerank_n12_d3_seed3"

    def test_row_matrix_encodes_column_stochastic_walk(self):
        spec = PagerankSpec(num_nodes=20, seed=5)
        problem = generate_pagerank(spec)
        g = problem.ineq_matrix.toarray()
        s = (np.eye(20) - g) / spec.damping
        np.testing.assert_allclose(s.sum(axis=0), np.ones(20), atol=1e-12)
        assert np.all(s >= 0)
        np.testing.assert_allclose(np.diag(g), np.ones(20))

    def test_bit_identical_regeneration(self):
        a = generate_pagerank(PagerankSpec(num_nodes=64, seed=9))
        b = generate_pagerank(PagerankSpec(num_nodes=64, seed=9))
        np.testing.assert_array_equal(a.ineq_matrix.toarray(), b.ineq_matrix.toarray())
        np.testing.assert_array_equal(a.ineq_rhs, b.ineq_rhs)

    def test_benchmark_instances_are_pinned(self):
        # digests of the n=1e5 instance and of the n=5e4 MPS text the
        # benchmark runs, so a change in how the sampler consumes the random
        # stream cannot pass unnoticed
        p = generate_pagerank(PagerankSpec(num_nodes=10**5, seed=0))
        g, a = p.ineq_matrix.tocsr(), p.eq_matrix.tocsr()
        digest = md5(g.indptr, g.indices, g.data, a.indptr, a.indices, a.data, p.ineq_rhs, p.eq_rhs)
        assert digest == "54287778e6fb16770804ff4526cee8d2"
        text = pl.write_mps(generate_pagerank(PagerankSpec(num_nodes=5 * 10**4, seed=0)))
        assert hashlib.md5(text.encode()).hexdigest() == "b9b2c4ce77a971784af852adb358abf0"

    def test_solution_matches_dense_stationary_vector(self):
        # the feasible set is the single PageRank vector: compare the LP
        # solution against a dense linear solve of (I - lambda*S') r = rhs
        spec = PagerankSpec(num_nodes=50, seed=1)
        problem = generate_pagerank(spec)
        g = problem.ineq_matrix.toarray()
        reference = np.linalg.solve(g, problem.ineq_rhs)
        assert reference.sum() == pytest.approx(1.0, abs=1e-12)  # oracle sanity
        report = pl.solve(problem)
        assert report.status == pl.STATUS_OPTIMAL
        np.testing.assert_allclose(report.x, reference, atol=1e-6)

    def test_spec_validation(self):
        with pytest.raises(pl.InvalidGeneratorSpec):
            PagerankSpec(num_nodes=1).validate()
        with pytest.raises(pl.InvalidGeneratorSpec):
            PagerankSpec(num_nodes=10, attach_degree=0).validate()
        with pytest.raises(pl.InvalidGeneratorSpec):
            PagerankSpec(num_nodes=5, attach_degree=5).validate()
        with pytest.raises(pl.InvalidGeneratorSpec):
            PagerankSpec(num_nodes=10, damping=1.0).validate()
        with pytest.raises(pl.InvalidGeneratorSpec):
            PagerankSpec(num_nodes=10, damping=0.0).validate()

    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"attach_degree": 3.5},
            {"attach_degree": True},
            {"num_nodes": 10.0},
            {"num_nodes": "10"},
            {"damping": "0.5"},
        ],
    )
    def test_spec_rejects_negative_seed_and_non_numbers(self, fields):
        spec = PagerankSpec(**{"num_nodes": 10, **fields})
        with pytest.raises(pl.InvalidGeneratorSpec, match=next(iter(fields))):
            spec.validate()

    def test_numpy_integers_are_accepted(self):
        spec = PagerankSpec(num_nodes=np.int64(10), attach_degree=np.int32(2), seed=np.uint8(4))
        problem = generate_pagerank(spec)
        assert problem.num_variables == 10


def scipy_pagerank_matrices(spec):
    """G and A of the PageRank LP as scipy's own expression builds them,
    brought to the canonical form a SparseMatrix keeps."""
    n = spec.num_nodes
    edges = barabasi_albert_edges(n, spec.attach_degree, spec.seed)
    rows, cols = edges[:, 0], edges[:, 1]
    ones = np.ones(len(edges))
    adj = sp.coo_matrix(
        (np.concatenate([ones, ones]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()
    degree = np.asarray(adj.sum(axis=0)).ravel()
    stochastic = adj @ sp.diags(1.0 / degree)
    matrices = []
    for matrix in (sp.eye(n, format="csr") - spec.damping * stochastic.tocsr(), sp.csr_matrix(np.ones((1, n)))):
        matrix = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        matrix.sort_indices()
        matrices.append(matrix)
    return matrices


def same_arrays(mat, reference):
    """Whether a SparseMatrix holds scipy's CSR arrays, dtypes and bytes."""
    return mat.shape == reference.shape and all(
        getattr(mat, name).dtype == getattr(reference, name).dtype
        and getattr(mat, name).tobytes() == getattr(reference, name).tobytes()
        for name in ("indptr", "indices", "data")
    )


class TestSameArraysAsScipy:
    """The PageRank matrices are built with scipy's compiled kernels alone,
    and hold the arrays that scipy's sparse expression gives."""

    @pytest.mark.parametrize("num_nodes, blocks", [(3_000, 1), (30_000, 2)])
    def test_generator(self, num_nodes, blocks):
        spec = PagerankSpec(num_nodes=num_nodes, seed=1)
        problem = generate_pagerank(spec)
        g, a = scipy_pagerank_matrices(spec)
        assert same_arrays(problem.ineq_matrix, g)
        assert same_arrays(problem.eq_matrix, a)
        assert len(problem.ineq_matrix.row_blocks()) == blocks

    def test_mps_reader(self):
        spec = PagerankSpec(num_nodes=3_000, seed=2)
        problem = pl.parse_mps(pl.write_mps(generate_pagerank(spec)))
        g, a = scipy_pagerank_matrices(spec)
        assert same_arrays(problem.ineq_matrix, g)
        assert same_arrays(problem.eq_matrix, a)


class TestToyProblems:
    def test_bilinear_toy(self):
        p = pl.generate_bilinear_toy()
        pl.validate(p)
        np.testing.assert_array_equal(p.c, [0.0])
        np.testing.assert_array_equal(p.eq_rhs, [3.0])
        assert p.num_inequalities == 0

    def test_primal_infeasible_toy_is_infeasible(self):
        p = pl.generate_primal_infeasible_toy()
        # x = -1 cannot meet x >= 0
        assert p.eq_rhs[0] < p.lower[0]

    def test_dual_infeasible_toy_is_unbounded(self):
        p = pl.generate_dual_infeasible_toy()
        assert p.c[0] < 0
        assert np.isinf(p.upper[0])
