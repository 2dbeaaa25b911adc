import numpy as np
import pytest

import pdhg_lp as pl


def small_problem():
    return pl.LpProblem(
        c=[1.0, -2.0],
        ineq_matrix=[[1.0, 1.0]],
        ineq_rhs=[1.0],
        eq_matrix=[[1.0, -1.0]],
        eq_rhs=[0.5],
        lower=[0.0, 0.0],
        upper=[4.0, np.inf],
    )


class TestConstruction:
    def test_defaults(self):
        p = pl.LpProblem(c=[1.0, 2.0])
        np.testing.assert_array_equal(p.lower, [0.0, 0.0])
        np.testing.assert_array_equal(p.upper, [np.inf, np.inf])
        assert p.num_inequalities == 0
        assert p.num_equalities == 0
        assert p.num_variables == 2

    def test_scalar_bounds_broadcast(self):
        p = pl.LpProblem(c=[1.0, 2.0, 3.0], lower=-1.0, upper=2.0)
        np.testing.assert_array_equal(p.lower, [-1.0, -1.0, -1.0])
        np.testing.assert_array_equal(p.upper, [2.0, 2.0, 2.0])

    def test_nnz(self):
        p = small_problem()
        assert p.nnz == 4

    def test_validate_accepts_consistent_problem(self):
        pl.validate(small_problem())

    def test_dimension_mismatch(self):
        p = pl.LpProblem(c=[1.0, 2.0], ineq_matrix=[[1.0, 2.0, 3.0]], ineq_rhs=[1.0])
        with pytest.raises(pl.DimensionMismatch):
            pl.validate(p)

    def test_rhs_length_mismatch(self):
        p = pl.LpProblem(c=[1.0], eq_matrix=[[1.0]], eq_rhs=[1.0, 2.0])
        with pytest.raises(pl.DimensionMismatch):
            pl.validate(p)

    def test_inconsistent_bounds(self):
        p = pl.LpProblem(c=[1.0], lower=[2.0], upper=[1.0])
        with pytest.raises(pl.InconsistentBounds):
            pl.validate(p)

    def test_non_finite_data(self):
        p = pl.LpProblem(c=[np.nan])
        with pytest.raises(pl.NonFiniteData):
            pl.validate(p)
        # matrices are screened as soon as they are wrapped
        with pytest.raises(pl.NonFiniteData):
            pl.LpProblem(c=[1.0], ineq_matrix=[[np.inf]], ineq_rhs=[0.0])

    def test_infinite_rhs_rejected(self):
        p = pl.LpProblem(c=[1.0], eq_matrix=[[1.0]], eq_rhs=[np.inf])
        with pytest.raises(pl.NonFiniteData):
            pl.validate(p)

    def test_name_lists_of_the_wrong_length_rejected(self):
        p = small_problem()
        p.constraint_names = ["only"]
        with pytest.raises(pl.DimensionMismatch, match="constraint_names has length 1, expected 2"):
            pl.validate(p)
        p.constraint_names = ["g", "a"]
        p.variable_names = ["x", "y", "z"]
        with pytest.raises(pl.DimensionMismatch, match="variable_names has length 3, expected 2"):
            pl.validate(p)
        p.variable_names = ["x", "y"]
        pl.validate(p)

    @pytest.mark.parametrize("sign", [2, 0, -2])
    def test_objective_sign_other_than_one_rejected(self, sign):
        # write_mps would write sign * c as a minimization
        p = small_problem()
        p.objective_sign = sign
        with pytest.raises(pl.ValidationError, match=f"objective_sign is {sign}, expected 1 or -1"):
            pl.validate(p)
        p.objective_sign = -1
        pl.validate(p)

    def test_violations_collected(self):
        p = pl.LpProblem(
            c=[1.0], ineq_matrix=[[1.0, 2.0]], ineq_rhs=[1.0], lower=[3.0], upper=[1.0]
        )
        with pytest.raises(pl.ValidationError) as err:
            pl.validate(p)
        assert len(err.value.violations) >= 2


class TestSaddleForm:
    def test_stacking(self):
        saddle = pl.to_saddle(small_problem())
        np.testing.assert_array_equal(
            saddle.K.toarray(), [[1.0, 1.0], [1.0, -1.0]]
        )
        np.testing.assert_array_equal(saddle.q, [1.0, 0.5])
        assert saddle.m1 == 1
        np.testing.assert_array_equal(saddle.c, [1.0, -2.0])
        np.testing.assert_array_equal(saddle.l, [0.0, 0.0])
        np.testing.assert_array_equal(saddle.u, [4.0, np.inf])

    def test_inequality_only(self):
        p = pl.LpProblem(c=[1.0], ineq_matrix=[[2.0]], ineq_rhs=[3.0])
        saddle = pl.to_saddle(p)
        assert saddle.K.shape == (1, 1)
        assert saddle.m1 == 1

    def test_lagrangian_value(self):
        # c'x - y'Kx + q'y on the 1-d toy: 0 - 2*2 + 3*2 = 2
        saddle = pl.to_saddle(pl.generate_bilinear_toy())
        val = pl.lagrangian(saddle, np.array([2.0]), np.array([2.0]))
        assert val == pytest.approx(2.0, abs=1e-15)

    def test_lagrangian_matches_dense_formula(self):
        rng = np.random.default_rng(17)
        p = pl.LpProblem(
            c=rng.standard_normal(3),
            ineq_matrix=rng.standard_normal((2, 3)),
            ineq_rhs=rng.standard_normal(2),
            eq_matrix=rng.standard_normal((1, 3)),
            eq_rhs=rng.standard_normal(1),
        )
        saddle = pl.to_saddle(p)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        k_dense = saddle.K.toarray()
        expected = p.c @ x - y @ (k_dense @ x) + saddle.q @ y
        assert pl.lagrangian(saddle, x, y) == pytest.approx(expected, rel=1e-13)
