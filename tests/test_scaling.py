import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import SparseMatrix


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
        np.testing.assert_allclose(scaled.row_abs_max(), [1.0, 1.0], rtol=1e-14)
        np.testing.assert_allclose(scaled.col_abs_max(), [1.0, 1.0], rtol=1e-14)

    def test_inf_norms_converge_to_one(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            mat = random_matrix(rng, int(rng.integers(3, 15)), int(rng.integers(3, 15)))
            scaling = pl.ruiz_rescale(mat, num_iters=20)
            scaled = mat.scaled(scaling.row_scale, scaling.col_scale)
            assert np.all(np.abs(scaled.row_abs_max() - 1.0) <= 1e-4)
            assert np.all(np.abs(scaled.col_abs_max() - 1.0) <= 1e-4)

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


class TestPockChambolle:
    def test_closed_form_all_ones(self):
        # row sums and column sums of |K| are both 2, so every scale is 1/sqrt(2)
        mat = SparseMatrix(np.ones((2, 2)), shape=(2, 2))
        scaling = pl.pock_chambolle_rescale(mat, alpha=1.0)
        np.testing.assert_allclose(scaling.row_scale, [2**-0.5, 2**-0.5], rtol=1e-15)
        np.testing.assert_allclose(scaling.col_scale, [2**-0.5, 2**-0.5], rtol=1e-15)

    def test_scaled_operator_norm_at_most_one(self):
        # the point of the alpha-scaling: ||D1 K D2||_2 <= 1
        rng = np.random.default_rng(77)
        for alpha in (0.5, 1.0, 1.5):
            mat = random_matrix(rng, 8, 11)
            scaling = pl.pock_chambolle_rescale(mat, alpha=alpha)
            scaled = mat.scaled(scaling.row_scale, scaling.col_scale)
            norm = np.linalg.svd(scaled.toarray(), compute_uv=False)[0]
            assert norm <= 1.0 + 1e-10

    def test_alpha_out_of_range(self):
        mat = SparseMatrix(np.ones((1, 1)), shape=(1, 1))
        with pytest.raises(pl.NonPositiveInput):
            pl.pock_chambolle_rescale(mat, alpha=2.5)


class TestCombined:
    def test_modes(self):
        rng = np.random.default_rng(5)
        mat = random_matrix(rng, 6, 7)
        assert pl.combined_rescale(mat, mode="none").is_identity
        ruiz = pl.combined_rescale(mat, mode="ruiz", ruiz_iters=10)
        pc = pl.combined_rescale(mat, mode="pc")
        both = pl.combined_rescale(mat, mode="ruiz+pc", ruiz_iters=10)
        assert not ruiz.is_identity and not pc.is_identity
        # composed pipeline really is ruiz followed by pc on the ruiz result
        scaled_once = mat.scaled(ruiz.row_scale, ruiz.col_scale)
        second = pl.pock_chambolle_rescale(scaled_once, alpha=1.0)
        np.testing.assert_allclose(
            both.row_scale, ruiz.row_scale * second.row_scale, rtol=1e-14
        )
        np.testing.assert_allclose(
            both.col_scale, ruiz.col_scale * second.col_scale, rtol=1e-14
        )

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

    def test_compose(self):
        a = pl.ScalingInfo([2.0], [0.5, 4.0])
        b = pl.ScalingInfo([3.0], [2.0, 0.25])
        c = a.compose(b)
        np.testing.assert_array_equal(c.row_scale, [6.0])
        np.testing.assert_array_equal(c.col_scale, [1.0, 1.0])
