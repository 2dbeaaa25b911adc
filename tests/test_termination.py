import warnings

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import (
    CertificateCandidate,
    TerminationCriteria,
    bound_objective_term,
    check_dual_infeasible,
    check_optimal,
    check_primal_infeasible,
    extract_certificates,
    kkt_error,
    reduced_cost_projection,
)

from conftest import random_small_saddle


def one_var_problem():
    # min x subject to x >= 1, x >= 0
    return pl.to_saddle(
        pl.LpProblem(c=[1.0], ineq_matrix=[[1.0]], ineq_rhs=[1.0])
    )


class TestKktError:
    def test_hand_computed_residuals(self):
        saddle = one_var_problem()
        report = kkt_error(saddle, np.array([0.5]), np.array([2.0]))
        # violation max(1 - 0.5, 0) = 0.5; r = 1 - 2 = -1 has no admissible
        # reduced cost (u = inf), so the dual residual is 1
        assert report.primal_residual == pytest.approx(0.5)
        assert report.dual_residual == pytest.approx(1.0)
        assert report.primal_objective == pytest.approx(0.5)
        assert report.dual_objective == pytest.approx(2.0)
        assert report.duality_gap == pytest.approx(1.5)
        assert report.rel_primal == pytest.approx(0.5 / 2.0)
        assert report.rel_dual == pytest.approx(1.0 / 2.0)
        assert report.rel_gap == pytest.approx(1.5 / 3.5)

    def test_zero_at_optimum(self):
        saddle = one_var_problem()
        report = kkt_error(saddle, np.array([1.0]), np.array([1.0]))
        assert report.primal_residual == 0.0
        assert report.dual_residual == 0.0
        assert report.duality_gap == 0.0
        assert check_optimal(report, TerminationCriteria(tol_optimal=0.0))

    def test_inequality_slack_not_penalized(self):
        # over-satisfied inequality rows contribute nothing
        saddle = one_var_problem()
        report = kkt_error(saddle, np.array([7.0]), np.array([0.0]))
        assert report.primal_residual == 0.0

    def test_equality_rows_penalize_both_sides(self):
        saddle = pl.to_saddle(pl.LpProblem(c=[0.0], eq_matrix=[[1.0]], eq_rhs=[2.0]))
        over = kkt_error(saddle, np.array([3.0]), np.array([0.0]))
        under = kkt_error(saddle, np.array([1.0]), np.array([0.0]))
        assert over.primal_residual == pytest.approx(1.0)
        assert under.primal_residual == pytest.approx(1.0)

    def test_bound_terms_enter_dual_objective(self):
        # min -x, 0 <= x <= 2, with a redundant row so the dual has a variable
        saddle = pl.to_saddle(
            pl.LpProblem(c=[-1.0], ineq_matrix=[[1.0]], ineq_rhs=[0.0], upper=[2.0])
        )
        report = kkt_error(saddle, np.array([2.0]), np.array([0.0]))
        # r = -1 clamps to lambda = -1 at the finite upper bound:
        # dual objective = 0 + u * lambda = -2, matching the primal optimum
        assert report.dual_residual == 0.0
        assert report.dual_objective == pytest.approx(-2.0)
        assert report.duality_gap == pytest.approx(0.0)


    def test_huge_residuals_without_overflow_warning(self):
        # squares of 1e200 overflow; the norms are computed scaled instead
        saddle = pl.to_saddle(
            pl.LpProblem(c=[1.0, 1.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0],
                         eq_matrix=[[0.0, 1.0]], eq_rhs=[0.0])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = kkt_error(saddle, np.array([-1e200, 1e200]), np.array([0.0, 3e200]))
            assert report.primal_residual == pytest.approx(np.hypot(1e200 + 1.0, 1e200), rel=1e-15)
            assert report.dual_residual == pytest.approx(3e200, rel=1e-15)
            beyond = kkt_error(saddle, np.array([-1.5e308, 1.5e308]), np.array([0.0, 0.0]))
            assert beyond.primal_residual == np.inf

    def test_overflowing_objective_is_inf_without_warning(self):
        # c'x overflows; pytest turns RuntimeWarning into an error for this suite
        saddle = pl.to_saddle(
            pl.LpProblem(c=[1.0, 1.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0],
                         eq_matrix=[[0.0, 1.0]], eq_rhs=[0.0])
        )
        report = kkt_error(saddle, np.array([1.5e308, 1.5e308]), np.array([0.0, 0.0]))
        assert report.primal_objective == np.inf
        assert report.duality_gap == np.inf

    def test_residual_norms_match_plain_formula(self):
        # below overflow the norms are the plain sqrt of the summed squares
        rng = np.random.default_rng(4)
        for _ in range(50):
            saddle, x, y = random_small_saddle(rng)
            x = x * 10.0 ** rng.uniform(-5, 5)
            report = kkt_error(saddle, x, y)
            kx = saddle.K.matvec(x)
            m1 = saddle.m1
            ineq = np.maximum(saddle.q[:m1] - kx[:m1], 0.0)
            eq = kx[m1:] - saddle.q[m1:]
            assert report.primal_residual == float(np.sqrt(ineq @ ineq + eq @ eq))
            r = saddle.c - saddle.K.rmatvec(y)
            lam = reduced_cost_projection(r, saddle.l, saddle.u)
            assert report.dual_residual == float(np.linalg.norm(r - lam))
            assert report.primal_objective == float(saddle.c @ x)


class TestReducedCosts:
    def test_clamp_matrix(self):
        l = np.array([0.0, -np.inf, 0.0, -np.inf])
        u = np.array([np.inf, 0.0, 1.0, np.inf])
        r = np.array([2.0, 2.0, -2.0, 2.0])
        lam = reduced_cost_projection(r, l, u)
        # lower-bounded: keeps positive part; upper-bounded: keeps negative
        # part; boxed: keeps either; free: forced to zero
        np.testing.assert_array_equal(lam, [2.0, 0.0, -2.0, 0.0])

    def test_negative_at_lower_rejected(self):
        lam = reduced_cost_projection(
            np.array([-3.0]), np.array([0.0]), np.array([np.inf])
        )
        np.testing.assert_array_equal(lam, [0.0])

    def test_bound_objective_term(self):
        lam = np.array([2.0, -3.0])
        l = np.array([1.0, 0.0])
        u = np.array([5.0, 2.0])
        assert bound_objective_term(lam, l, u) == pytest.approx(1 * 2 + 2 * -3)


class TestCheckOptimal:
    def test_tolerance_is_inclusive(self):
        report = pl.KktReport(
            primal_residual=1.0,
            dual_residual=1.0,
            duality_gap=1.0,
            rel_primal=1e-8,
            rel_dual=1e-8,
            rel_gap=1e-8,
            primal_objective=0.0,
            dual_objective=0.0,
            reduced_costs=np.zeros(1),
        )
        assert check_optimal(report, TerminationCriteria(tol_optimal=1e-8))
        assert not check_optimal(report, TerminationCriteria(tol_optimal=0.999e-8))


class TestCertificates:
    def test_extraction_formulas(self):
        z_prev = (np.array([1.0]), np.array([2.0]))
        z_cur = (np.array([3.0]), np.array([8.0]))
        z0 = (np.array([1.0]), np.array([0.0]))
        diff, norm = extract_certificates(z_prev, z_cur, z0, iteration=4)
        assert diff.kind == "difference"
        np.testing.assert_array_equal(diff.x, [2.0])
        np.testing.assert_array_equal(diff.y, [6.0])
        assert norm.kind == "normalized"
        np.testing.assert_array_equal(norm.x, [0.5])
        np.testing.assert_array_equal(norm.y, [2.0])

    def test_extraction_needs_positive_iteration(self):
        z = (np.zeros(1), np.zeros(1))
        with pytest.raises(pl.NonPositiveInput):
            extract_certificates(z, z, z, iteration=0)

    def test_primal_infeasibility_ray(self):
        # x = -1 with x >= 0 is infeasible; y = -1 prices it out:
        # -K'y = 1 is a valid reduced cost and q'y = 1 > 0
        saddle = pl.to_saddle(pl.generate_primal_infeasible_toy())
        verdict = check_primal_infeasible(saddle, np.array([-1.0]), tol=1e-10)
        assert verdict.valid
        assert verdict.residual == 0.0
        assert verdict.gain == pytest.approx(1.0)
        assert verdict.margin == pytest.approx(1.0)

    def test_ray_scale_invariance(self):
        saddle = pl.to_saddle(pl.generate_primal_infeasible_toy())
        a = check_primal_infeasible(saddle, np.array([-1.0]), tol=1e-10)
        b = check_primal_infeasible(saddle, np.array([-7.5]), tol=1e-10)
        assert a.margin == pytest.approx(b.margin, rel=1e-15)

    def test_wrong_sign_dual_ray_rejected(self):
        saddle = pl.to_saddle(pl.generate_primal_infeasible_toy())
        verdict = check_primal_infeasible(saddle, np.array([1.0]), tol=1e-10)
        assert not verdict.valid
        assert verdict.residual == pytest.approx(1.0)

    def test_dual_infeasibility_ray(self):
        # min -x with x >= 0: the ray d = 1 certifies unboundedness
        saddle = pl.to_saddle(pl.generate_dual_infeasible_toy())
        verdict = check_dual_infeasible(saddle, np.array([1.0]), tol=1e-10)
        assert verdict.valid
        assert verdict.residual == 0.0
        assert verdict.gain == pytest.approx(1.0)
        assert verdict.margin == pytest.approx(1.0)

    def test_descending_ray_rejected(self):
        saddle = pl.to_saddle(pl.generate_dual_infeasible_toy())
        verdict = check_dual_infeasible(saddle, np.array([-1.0]), tol=1e-10)
        assert not verdict.valid

    def test_boxed_variables_admit_no_primal_ray(self):
        saddle = pl.to_saddle(pl.LpProblem(c=[-1.0], lower=[0.0], upper=[1.0]))
        verdict = check_dual_infeasible(saddle, np.array([1.0]), tol=1e-10)
        assert not verdict.valid
        assert verdict.residual == pytest.approx(1.0)

    def test_equality_rows_constrain_ray(self):
        # sum(x) = 1 kills any ray with K d != 0
        saddle = pl.to_saddle(
            pl.LpProblem(c=[-1.0, 0.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
        )
        bad = check_dual_infeasible(saddle, np.array([1.0, 0.0]), tol=1e-10)
        assert not bad.valid
        ok = check_dual_infeasible(saddle, np.array([1.0, -1.0]), tol=1e-10)
        # K d = 0, but d = -1 < 0 at a lower-bounded coordinate: still no ray
        assert not ok.valid

    def test_zero_ray_raises(self):
        saddle = one_var_problem()
        with pytest.raises(pl.NotACertificate):
            check_primal_infeasible(saddle, np.zeros(1), tol=1e-10)
        with pytest.raises(pl.NotACertificate):
            check_dual_infeasible(saddle, np.zeros(1), tol=1e-10)

    def test_feasible_problem_yields_no_certificate_along_run(self):
        # sanity: rays extracted from a convergent run never validate
        saddle = pl.to_saddle(pl.generate_bilinear_toy())
        state = pl.IterateState(x=[2.0], y=[2.0])
        step = pl.StepState(0.2, 1.0)
        z0 = (state.x.copy(), state.y.copy())
        prev = z0
        for k in range(1, 200):
            pl.pdhg_step(state, saddle, step)
            cur = (state.x.copy(), state.y.copy())
            for cand in extract_certificates(prev, cur, z0, k):
                ray = np.concatenate([cand.x, cand.y])
                if np.linalg.norm(ray) == 0.0:
                    continue
                assert not check_primal_infeasible(saddle, cand.y, 1e-10).valid
                assert not check_dual_infeasible(saddle, cand.x, 1e-10).valid
            prev = cur
