import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import pdhg_lp as pl
from pdhg_lp import SparseMatrix, scaling as scaling_module, sparse as sparse_module
from pdhg_lp.scaling import ROW_ORDER_MIN_NNZ, _abs_entries, _ruiz_scales, length_order

from conftest import random_feasible_lp


def random_matrix(rng, m, n, spread=2.0):
    mags = 10.0 ** rng.uniform(-spread, spread, (m, n))
    dense = rng.standard_normal((m, n)) * mags
    # keep every row/column populated so equilibration applies everywhere
    return SparseMatrix(dense, shape=(m, n))


class TestRuiz:
    def test_diagonal_equilibrated_in_one_sweep(self):
        mat = SparseMatrix(np.diag([100.0, 0.01]), shape=(2, 2))
        scaling = pl.ruiz_rescale(mat, num_iters=1)
        scaled = mat.scaled(scaling.row_scale, scaling.col_scale)
        dense = np.abs(scaled.toarray())
        np.testing.assert_allclose(dense.max(axis=1), [1.0, 1.0], rtol=1e-14)
        np.testing.assert_allclose(dense.max(axis=0), [1.0, 1.0], rtol=1e-14)

    def test_inf_norms_converge_to_one(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            mat = random_matrix(rng, int(rng.integers(3, 15)), int(rng.integers(3, 15)))
            scaling = pl.ruiz_rescale(mat, num_iters=20)
            scaled = mat.scaled(scaling.row_scale, scaling.col_scale)
            dense = np.abs(scaled.toarray())
            assert np.all(np.abs(dense.max(axis=1) - 1.0) <= 1e-4)
            assert np.all(np.abs(dense.max(axis=0) - 1.0) <= 1e-4)

    def test_empty_rows_keep_unit_scale(self):
        dense = np.zeros((3, 2))
        dense[0, 0] = 4.0
        mat = SparseMatrix(dense, shape=(3, 2))
        scaling = pl.ruiz_rescale(mat, num_iters=5)
        assert scaling.row_scale[1] == 1.0
        assert scaling.row_scale[2] == 1.0
        assert scaling.col_scale[1] == 1.0

    def test_zero_iters_is_identity(self):
        mat = SparseMatrix(np.ones((2, 2)), shape=(2, 2))
        assert pl.ruiz_rescale(mat, num_iters=0).is_identity

    def test_negative_iters_rejected(self):
        mat = SparseMatrix(np.ones((1, 1)), shape=(1, 1))
        with pytest.raises(pl.NonPositiveInput):
            pl.ruiz_rescale(mat, num_iters=-1)


def log_mean_ruiz(mat, sweeps):
    """The log-mean pass, then ``sweeps`` Ruiz sweeps, as the default mode
    runs them: (d1, d2)."""
    return _ruiz_scales(_abs_entries(mat), sweeps, True, math.inf)


def pock_chambolle(mat):
    """Pock-Chambolle at alpha = 1 restated on the CSR entries of ``mat``,
    summed in their order: (row sums of |mat|)^(-1/2) and (column
    sums)^(-1/2), 1 for an empty row or column."""
    csr = mat.tocsr()
    entries = np.abs(csr.data)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(csr.indptr))
    sums = (np.bincount(rows, entries, mat.shape[0]), np.bincount(csr.indices, entries, mat.shape[1]))
    return tuple(np.where(t > 0, 1.0 / np.sqrt(np.maximum(t, 1e-300)), 1.0) for t in sums)


class TestLogMean:
    """The log-mean pass that the default mode runs before Ruiz."""

    def test_closed_form(self):
        # row shift mean(log2 2, log2 8) = 2, column shifts -1 and 1; the
        # empty row and column keep 1
        mat = SparseMatrix(np.array([[2.0, 8.0, 0.0], [0.0, 0.0, 0.0]]), shape=(2, 3))
        row_scale, col_scale = log_mean_ruiz(mat, 0)
        np.testing.assert_array_equal(row_scale, [0.25, 1.0])
        np.testing.assert_array_equal(col_scale, [2.0, 0.5, 1.0])

    def test_row_scales_taken_out(self):
        rng = np.random.default_rng(31)
        mat = random_matrix(rng, 9, 12, spread=3.0)
        base = log_mean_ruiz(mat, 0)
        # a power of two moves the row factor by exactly its inverse
        powers = 2.0 ** rng.integers(-30, 30, 9)
        exact = log_mean_ruiz(mat.scaled(powers, np.ones(12)), 0)
        assert (exact[0] * powers).tobytes() == base[0].tobytes()
        assert exact[1].tobytes() == base[1].tobytes()
        # any other factor up to rounding
        factors = rng.uniform(1e-6, 1e6, 9)
        near = log_mean_ruiz(mat.scaled(factors, np.ones(12)), 0)
        np.testing.assert_allclose(near[0] * factors, base[0], rtol=1e-12)
        np.testing.assert_allclose(near[1], base[1], rtol=1e-12)

    def test_ruiz_runs_as_on_the_prescaled_matrix(self):
        rng = np.random.default_rng(32)
        mat = random_matrix(rng, 7, 5)
        first = log_mean_ruiz(mat, 0)
        then = pl.ruiz_rescale(mat.scaled(*first), 10)
        both = log_mean_ruiz(mat, 10)
        np.testing.assert_allclose(both[0], first[0] * then.row_scale, rtol=1e-14)
        np.testing.assert_allclose(both[1], first[1] * then.col_scale, rtol=1e-14)
        combined = pl.combined_rescale(mat, mode="logmean+ruiz+pc")
        pc = pock_chambolle(mat.scaled(*both))
        np.testing.assert_allclose(combined.row_scale, both[0] * pc[0], rtol=1e-14)

    def test_the_default_mode(self):
        assert pl.SolverConfig().scaling == scaling_module.DEFAULT_SCALING == "logmean+ruiz+pc"


class TestPockChambolle:
    """The pass that ends both scaling modes, at alpha = 1."""

    def test_closed_form_all_ones(self):
        # Ruiz leaves |K| = 1 alone; then row sums and column sums are both
        # 2, so every scale is 1/sqrt(2)
        mat = SparseMatrix(np.ones((2, 2)), shape=(2, 2))
        scaling = pl.combined_rescale(mat, "ruiz+pc")
        np.testing.assert_allclose(scaling.row_scale, [2**-0.5, 2**-0.5], rtol=1e-15)
        np.testing.assert_allclose(scaling.col_scale, [2**-0.5, 2**-0.5], rtol=1e-15)

    def test_scaled_operator_norm_at_most_one(self):
        # the point of the alpha-scaling: ||D1 K D2||_2 <= 1
        rng = np.random.default_rng(77)
        mat = random_matrix(rng, 8, 11)
        scaling = pl.combined_rescale(mat, "ruiz+pc")
        scaled = mat.scaled(scaling.row_scale, scaling.col_scale)
        norm = np.linalg.svd(scaled.toarray(), compute_uv=False)[0]
        assert norm <= 1.0 + 1e-10


class TestCombined:
    @pytest.mark.parametrize("mode", ["ruiz+pc", "logmean+ruiz+pc"])
    @pytest.mark.parametrize("case", [*range(5), "pagerank"])
    def test_matches_the_chain_of_passes(self, mode, case):
        # the reference: the Ruiz sweeps, a scaled copy of K, then
        # Pock-Chambolle restated on that copy, composed by hand;
        # combined_rescale runs the same arithmetic on K's entries, to the bit
        if case == "pagerank":
            problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=3000))
        else:
            problem = random_feasible_lp(case)
        mat = pl.to_saddle(problem).K
        assert (case == "pagerank") == (mat.nnz >= ROW_ORDER_MIN_NNZ)
        ruiz = _ruiz_scales(_abs_entries(mat), 10, mode.startswith("logmean"), math.inf)
        pc = pock_chambolle(mat.scaled(*ruiz))
        both = pl.combined_rescale(mat, mode=mode)
        assert both.row_scale.tobytes() == (ruiz[0] * pc[0]).tobytes()
        assert both.col_scale.tobytes() == (ruiz[1] * pc[1]).tobytes()
        assert pl.combined_rescale(mat, mode="none").is_identity

    def test_unknown_mode(self):
        mat = SparseMatrix(np.ones((1, 1)), shape=(1, 1))
        with pytest.raises(pl.NonPositiveInput):
            pl.combined_rescale(mat, mode="bogus")

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        mat = random_matrix(rng, 5, 5)
        a = pl.combined_rescale(mat, mode="ruiz+pc")
        b = pl.combined_rescale(mat, mode="ruiz+pc")
        np.testing.assert_array_equal(a.row_scale, b.row_scale)
        np.testing.assert_array_equal(a.col_scale, b.col_scale)


class TestApplyAndRoundTrip:
    def make_saddle(self, rng):
        problem = pl.LpProblem(
            c=rng.standard_normal(4),
            ineq_matrix=rng.standard_normal((2, 4)),
            ineq_rhs=rng.standard_normal(2),
            eq_matrix=rng.standard_normal((1, 4)),
            eq_rhs=rng.standard_normal(1),
            lower=[0.0, -np.inf, 1.0, 0.0],
            upper=[np.inf, 2.0, 3.0, np.inf],
        )
        return pl.to_saddle(problem)

    def test_transformed_data(self):
        rng = np.random.default_rng(21)
        saddle = self.make_saddle(rng)
        scaling = pl.ScalingInfo(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 4))
        scaled = pl.apply_scaling(saddle, scaling)
        d1 = np.diag(scaling.row_scale)
        d2 = np.diag(scaling.col_scale)
        np.testing.assert_allclose(
            scaled.K.toarray(), d1 @ saddle.K.toarray() @ d2, atol=1e-14
        )
        np.testing.assert_allclose(scaled.q, scaling.row_scale * saddle.q)
        np.testing.assert_allclose(scaled.c, scaling.col_scale * saddle.c)
        np.testing.assert_allclose(scaled.l, saddle.l / scaling.col_scale)
        np.testing.assert_allclose(scaled.u, saddle.u / scaling.col_scale)
        # infinities survive rescaling untouched
        assert scaled.l[1] == -np.inf
        assert scaled.u[0] == np.inf

    def test_solution_round_trip(self):
        rng = np.random.default_rng(31)
        saddle = self.make_saddle(rng)
        scaling = pl.ScalingInfo(rng.uniform(0.1, 10.0, 3), rng.uniform(0.1, 10.0, 4))
        x = rng.standard_normal(4)
        y = rng.standard_normal(3)
        # scale the point forward by hand, then unscale through the API
        x_scaled = x / scaling.col_scale
        y_scaled = y / scaling.row_scale
        x_back, y_back = pl.unscale_solution(x_scaled, y_scaled, scaling)
        np.testing.assert_allclose(x_back, x, rtol=1e-14)
        np.testing.assert_allclose(y_back, y, rtol=1e-14)

    def test_unscaling_overflow_is_inf_without_warning(self):
        # pytest turns RuntimeWarning into an error for this suite
        scaling = pl.ScalingInfo([4.0, 0.5], [10.0, 1.0])
        x_back, y_back = pl.unscale_solution(np.array([1.5e308, -3.0]), np.array([-1e308, 5.0]), scaling)
        np.testing.assert_array_equal(x_back, [np.inf, -3.0])
        np.testing.assert_array_equal(y_back, [-np.inf, 2.5])
        rng = np.random.default_rng(32)
        x, y = rng.standard_normal(4), rng.standard_normal(3)
        scaling = pl.ScalingInfo(rng.uniform(0.1, 10.0, 3), rng.uniform(0.1, 10.0, 4))
        x_back, y_back = pl.unscale_solution(x, y, scaling)
        assert x_back.tobytes() == (x * scaling.col_scale).tobytes()
        assert y_back.tobytes() == (y * scaling.row_scale).tobytes()

    def test_objective_invariance(self):
        # c~'x~ equals c'x when the point is mapped consistently
        rng = np.random.default_rng(41)
        saddle = self.make_saddle(rng)
        scaling = pl.ScalingInfo(rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 4))
        scaled = pl.apply_scaling(saddle, scaling)
        x = rng.standard_normal(4)
        y = rng.standard_normal(3)
        assert pl.lagrangian(scaled, x / scaling.col_scale, y / scaling.row_scale) == (
            pytest.approx(pl.lagrangian(saddle, x, y), rel=1e-12)
        )

    def test_identity_shortcut(self):
        rng = np.random.default_rng(51)
        saddle = self.make_saddle(rng)
        scaled = pl.apply_scaling(saddle, pl.ScalingInfo.identity(saddle.K.shape))
        assert scaled.K is saddle.K
        np.testing.assert_array_equal(scaled.q, saddle.q)

    def test_dimension_check(self):
        rng = np.random.default_rng(61)
        saddle = self.make_saddle(rng)
        with pytest.raises(pl.DimensionMismatch):
            pl.apply_scaling(saddle, pl.ScalingInfo(np.ones(2), np.ones(4)))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(pl.NonPositiveInput):
            pl.ScalingInfo([1.0, 0.0], [1.0])


def rows_of_lengths(lengths, n=None):
    """A matrix whose row i holds lengths[i] entries, each row's value
    telling its index."""
    n = n or max(lengths)
    dense = np.zeros((len(lengths), n))
    for i, k in enumerate(lengths):
        dense[i, :k] = i + 1.0 + np.arange(k) / n
    return SparseMatrix(dense, shape=dense.shape)


@pytest.fixture
def no_floor(monkeypatch):
    """Order matrices of any size, so small ones show the rule."""
    monkeypatch.setattr(scaling_module, "ROW_ORDER_MIN_NNZ", 0)


class TestLengthOrder:
    def test_longest_rows_first_within_each_block(self, no_floor):
        mat = rows_of_lengths([1, 3, 2, 1, 4, 2])
        np.testing.assert_array_equal(length_order(mat, 3), [1, 2, 0, 4, 5, 3])
        # the m1 block stays first even where the other block's rows are longer
        order = length_order(mat, 2)
        np.testing.assert_array_equal(order, [1, 0, 4, 2, 5, 3])
        assert set(order[:2]) == {0, 1}

    def test_sort_is_stable(self, no_floor):
        mat = rows_of_lengths([2, 3, 2, 3, 1, 2])
        np.testing.assert_array_equal(length_order(mat, 0), [1, 3, 0, 2, 5, 4])
        np.testing.assert_array_equal(length_order(mat, 6), [1, 3, 0, 2, 5, 4])

    def test_identity_when_rows_are_already_in_order(self, no_floor):
        assert length_order(rows_of_lengths([3, 3, 2, 1]), 0) is None
        assert length_order(rows_of_lengths([2, 1, 3, 3]), 2) is None

    def test_identity_below_the_floor(self):
        lengths = np.resize([1, 5, 3], 3 * (ROW_ORDER_MIN_NNZ // 9))
        csr = rows_of_lengths(lengths.tolist(), 5)
        assert 0 < csr.nnz < ROW_ORDER_MIN_NNZ
        assert length_order(csr, 0) is None
        # criterion 8's LPs keep their rows, and so their iterates
        for seed in range(20):
            saddle = pl.to_saddle(random_feasible_lp(seed))
            assert saddle.K.nnz < ROW_ORDER_MIN_NNZ
            assert pl.combined_rescale(saddle.K, m1=saddle.m1).row_order is None

    def test_identity_when_all_rows_have_the_same_length(self):
        m = ROW_ORDER_MIN_NNZ // 3 + 1
        band = sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(m, m + 2), format="csr")
        mat = SparseMatrix(band)
        assert mat.nnz >= ROW_ORDER_MIN_NNZ
        assert length_order(mat, m // 2) is None

    def test_pagerank_rows_ordered_above_the_floor(self):
        saddle = pl.to_saddle(pl.generate_pagerank(pl.PagerankSpec(num_nodes=2500)))
        assert saddle.K.nnz >= ROW_ORDER_MIN_NNZ
        order = length_order(saddle.K, saddle.m1)
        lengths = saddle.K.row_lengths()[order]
        assert np.all(np.diff(lengths[: saddle.m1]) <= 0)
        # the one equality row stays last
        assert order[-1] == saddle.m1
        np.testing.assert_array_equal(np.sort(order), np.arange(saddle.num_dual))

    def test_combined_rescale_orders_only_given_m1(self, no_floor):
        mat = rows_of_lengths([1, 3, 2])
        assert pl.combined_rescale(mat).row_order is None
        for mode in scaling_module.SCALING_MODES:
            info = pl.combined_rescale(mat, mode=mode, m1=0)
            np.testing.assert_array_equal(info.row_order, [1, 2, 0])
            assert not info.is_identity


class TestWorkingSpaceRoundTrip:
    def make(self):
        problem = pl.LpProblem(
            c=np.array([1.0, -2.0, 0.5, 3.0]),
            ineq_matrix=[[1.0, 0.0, 0.0, 0.0], [1.0, 2.0, -1.0, 0.0]],
            ineq_rhs=np.array([0.5, -1.0]),
            eq_matrix=[[0.0, 1.0, 0.0, 0.0], [3.0, 1.0, 1.0, 4.0]],
            eq_rhs=np.array([2.0, 7.0]),
            lower=[0.0, -np.inf, 1.0, 0.0],
            upper=[np.inf, 2.0, 3.0, np.inf],
        )
        saddle = pl.to_saddle(problem)
        rng = np.random.default_rng(71)
        info = pl.ScalingInfo(rng.uniform(0.1, 10.0, 4), rng.uniform(0.1, 10.0, 4), [1, 0, 3, 2])
        return saddle, info

    def test_working_data_is_the_scaled_data_gathered(self):
        saddle, info = self.make()
        plain = pl.apply_scaling(saddle, pl.ScalingInfo(info.row_scale, info.col_scale))
        working = pl.apply_scaling(saddle, info)
        assert working.m1 == saddle.m1
        assert working.K.tocsr().data.tobytes() == plain.K.tocsr()[info.row_order].data.tobytes()
        np.testing.assert_array_equal(working.K.toarray(), plain.K.toarray()[info.row_order])
        assert working.q.tobytes() == plain.q[info.row_order].tobytes()
        for name in ("c", "l", "u"):
            assert getattr(working, name).tobytes() == getattr(plain, name).tobytes()

    def test_unscale_maps_y_back_exactly(self):
        _, info = self.make()
        rng = np.random.default_rng(72)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        x_back, y_back = pl.unscale_solution(x, y, info)
        assert x_back.tobytes() == (x * info.col_scale).tobytes()
        assert y_back[info.row_order].tobytes() == (y * info.row_scale[info.row_order]).tobytes()
        # the inverse: a point scaled forward into the working space comes back
        y_orig = rng.standard_normal(4)
        x_back, y_back = pl.unscale_solution(x, (y_orig / info.row_scale)[info.row_order], info)
        np.testing.assert_allclose(y_back, y_orig, rtol=1e-15)

    def test_lagrangian_invariant(self):
        saddle, info = self.make()
        working = pl.apply_scaling(saddle, info)
        rng = np.random.default_rng(73)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        xw, yw = x / info.col_scale, (y / info.row_scale)[info.row_order]
        assert pl.lagrangian(working, xw, yw) == pytest.approx(pl.lagrangian(saddle, x, y), rel=1e-12)

    def test_order_must_keep_the_m1_block_first(self):
        saddle, info = self.make()
        with pytest.raises(pl.DimensionMismatch):
            pl.apply_scaling(saddle, pl.ScalingInfo(info.row_scale, info.col_scale, [2, 1, 0, 3]))

    def test_order_must_be_a_permutation(self):
        for order in ([0, 0, 1, 2], [0, 1, 2], [1, 2, 3, 4]):
            with pytest.raises(pl.DimensionMismatch):
                pl.ScalingInfo(np.ones(4), np.ones(2), order)


def coo_scales(mat, mode):
    """Ruiz and then Pock-Chambolle at alpha = 1 over K's COO triplets,
    from the log-mean pass if the mode names it: each sweep takes its
    maxima with ``np.maximum.at`` on ``vals * d1[rows] * d2[cols]``, and
    every sum is a ``np.bincount``.  (d1, d2) after the sweeps alone for
    mode "ruiz", else the combined scales."""
    coo = mat.tocoo()
    rows, cols, vals = coo.row, coo.col, np.abs(coo.data)
    (m, n), d1, d2 = mat.shape, np.ones(mat.shape[0]), np.ones(mat.shape[1])

    def mean_by(index, values, size):
        return np.bincount(index, values, size) / np.maximum(np.bincount(index, minlength=size), 1)

    if mode.startswith("logmean"):
        whole = np.floor(mean_by(rows, np.frexp(vals)[1], m)).astype(np.int32)
        logs = np.log2(np.ldexp(vals, -whole[rows]))
        row_shift = mean_by(rows, logs, m)
        logs -= row_shift[rows]
        d1, d2 = np.ldexp(np.exp2(-row_shift), -whole), np.exp2(-mean_by(cols, logs, n))
    for _ in range(scaling_module.RUIZ_ITERATIONS):
        cur = vals * d1[rows] * d2[cols]
        row_inf, col_inf = np.zeros(m), np.zeros(n)
        np.maximum.at(row_inf, rows, cur)
        np.maximum.at(col_inf, cols, cur)
        d1 = np.where(row_inf > 0, d1 / np.sqrt(np.maximum(row_inf, 1e-300)), d1)
        d2 = np.where(col_inf > 0, d2 / np.sqrt(np.maximum(col_inf, 1e-300)), d2)
    if mode == "ruiz":
        return d1, d2
    cur = d1[rows] * d2[cols]
    cur *= vals
    sums = (np.bincount(rows, cur, m), np.bincount(cols, cur, n))
    e1, e2 = (np.where(s > 0, 1.0 / np.sqrt(np.maximum(s, 1e-300)), 1.0) for s in sums)
    return d1 * e1, d2 * e2


def split_matrix(dense, monkeypatch):
    """``dense`` as a SparseMatrix of two row blocks, with the split floor
    at 1 nonzero."""
    monkeypatch.setattr(sparse_module, "SPLIT_MIN_NNZ", 1)
    return SparseMatrix(dense, shape=dense.shape)


def scales_both_ways(mat, monkeypatch, run):
    """``run(mat)``'s result once with the worker thread and once with
    ``_worker`` returning None, so that the caller runs both halves; the
    worker must have been asked for once a pass on two blocks (and on one
    CPU gives None)."""
    workers, real = [], scaling_module._worker
    monkeypatch.setattr(scaling_module, "_worker", lambda: workers.append(real()) or workers[-1])
    threaded = run(mat)
    assert bool(workers) == (len(mat.row_blocks()) == 2)
    assert all(w is None for w in workers) if sparse_module._cpus() < 2 else None not in workers
    monkeypatch.setattr(scaling_module, "_worker", lambda: None)
    return threaded, run(mat)


def small_cases():
    """Small matrices that take two row blocks at a floor of 1 nonzero,
    but the single row, which stays one block."""
    rng = np.random.default_rng(41)
    dense = rng.standard_normal((9, 7)) * 10.0 ** rng.uniform(-3, 3, (9, 7))
    dense[rng.random((9, 7)) < 0.4] = 0.0
    holes = dense.copy()
    holes[[0, 4, 8], :] = 0.0  # empty rows, the first and the last among them
    holes[:, [2, 6]] = 0.0  # empty columns
    boundary = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    first_block_empty = np.array([[0.0, 0.0], [5.0, 0.25]])
    single_row = rng.standard_normal((1, 6))
    return {
        "dense": dense,
        "empty_rows_and_columns": holes,
        "empty_row_at_the_boundary": boundary,
        "first_block_empty": first_block_empty,
        "single_row": single_row,
    }


class TestRowBlockScaling:
    """The passes run on K's row blocks, on two threads when there are
    two, and keep the bits of the sweep over K's COO triplets.  The CI
    runs these tests under ``taskset -c 0`` too, where ``_worker`` itself
    returns None."""

    RUNS = {
        "ruiz": lambda mat: pl.ruiz_rescale(mat),
        "ruiz+pc": lambda mat: pl.combined_rescale(mat, "ruiz+pc"),
        "logmean+ruiz+pc": lambda mat: pl.combined_rescale(mat, "logmean+ruiz+pc"),
    }

    @staticmethod
    def assert_same(scaling, reference):
        assert scaling.row_scale.tobytes() == reference[0].tobytes()
        assert scaling.col_scale.tobytes() == reference[1].tobytes()

    @pytest.fixture(scope="class")
    def pagerank_k(self):
        # the fingerprint's PageRank: its K takes two real blocks
        return pl.to_saddle(pl.generate_pagerank(pl.PagerankSpec(num_nodes=30_000))).K

    @pytest.mark.parametrize("mode", list(RUNS))
    def test_two_threads_match_the_coo_sweep_on_pagerank(self, pagerank_k, mode, monkeypatch):
        assert pagerank_k.nnz >= sparse_module.SPLIT_MIN_NNZ and len(pagerank_k.row_blocks()) == 2
        reference = coo_scales(pagerank_k, mode)
        for scaling in scales_both_ways(pagerank_k, monkeypatch, self.RUNS[mode]):
            self.assert_same(scaling, reference)

    @pytest.mark.parametrize("case", list(small_cases()))
    @pytest.mark.parametrize("mode", list(RUNS))
    def test_two_threads_match_the_coo_sweep_on_small_blocks(self, case, mode, monkeypatch):
        mat = split_matrix(small_cases()[case], monkeypatch)
        blocks = mat.row_blocks()
        assert len(blocks) == (1 if case == "single_row" else 2)
        if case == "empty_row_at_the_boundary":
            assert blocks[1][0].start == 1 and mat.row_lengths()[1] == 0
        if case == "first_block_empty":
            assert blocks[0][1][-1] == 0
        reference = coo_scales(mat, mode)
        for scaling in scales_both_ways(mat, monkeypatch, self.RUNS[mode]):
            self.assert_same(scaling, reference)

    # under the suite's warning filter: scales (seed 0), a RuntimeWarning
    # from the log-mean pass's ldexp (1) and log2 (9) and from a sweep's
    # divide (19), and NonPositiveInput after a sweep's entry product
    # overflows (13, 29); with warnings only recorded, a NaN reaches a
    # sweep's maxima (85, 111) and a product d1_i * d2_j of the
    # Pock-Chambolle pass overflows (73)
    @pytest.mark.parametrize("seed", [0, 1, 9, 13, 19, 29, 73, 85, 111])
    def test_two_threads_same_outcome_at_the_edge_of_the_float_range(self, seed, monkeypatch):
        # entries +-k * 2^j with |j| up to 600 or 1,000: the passes may
        # overflow, underflow or raise; either way the worker changes
        # nothing, neither the result nor a warning, since every numpy call
        # that can warn runs on the caller
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 6, 2)
        limit = (600, 1000)[seed % 2]
        signs = rng.choice([-1.0, 1.0], (m, n))
        dense = signs * np.ldexp(rng.integers(1, 8, (m, n)), rng.integers(-limit, limit + 1, (m, n)))
        dense[rng.random((m, n)) < 0.3] = 0.0
        dense[0, 0] = 2.0**-limit
        mat = split_matrix(dense, monkeypatch)
        assert len(mat.row_blocks()) == 2

        def result(mat):
            try:
                scaling = pl.combined_rescale(mat)
            except Exception as error:  # noqa: BLE001 - the type is what is compared
                return type(error)
            return scaling.row_scale.tobytes(), scaling.col_scale.tobytes()

        def outcome(mat):
            raised = result(mat)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                return raised, result(mat), sorted({str(w.message) for w in seen})

        threaded, caller = scales_both_ways(mat, monkeypatch, outcome)
        assert threaded == caller
