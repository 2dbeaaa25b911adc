import dataclasses
import math
import warnings

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import (
    CertificateCandidate,
    CertificateVerdict,
    TerminationCriteria,
    check_dual_infeasible,
    check_optimal,
    check_primal_infeasible,
    extract_certificates,
    kkt_error,
)

from pdhg_lp import termination
from pdhg_lp.sparse import dot
from pdhg_lp.termination import check_constants

from conftest import planted_infeasible_lp, planted_unbounded_lp, random_feasible_lp, random_small_saddle


def reduced_cost_projection(r, l, u):
    """The reduced costs that the bounds admit, from the bounds themselves:
    r_i where r_i > 0 and l_i is finite or r_i < 0 and u_i is finite, else 0."""
    return np.where((r > 0) & np.isfinite(l) | (r < 0) & np.isfinite(u), r, 0.0)


def bound_objective_term(lam, l, u):
    """sum of l_i lambda_i over lambda_i > 0 plus u_i lambda_i over lambda_i < 0."""
    pos = lam > 0
    neg = lam < 0
    total = 0.0
    if np.any(pos):
        total += dot(l[pos], lam[pos])
    if np.any(neg):
        total += dot(u[neg], lam[neg])
    return total


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

    def test_opposite_infinities_in_the_objective_are_nan_without_warning(self):
        # c_0 < 0 < c_2, so c'x is inf - inf; the suite makes a warning an error
        saddle = pl.to_saddle(random_feasible_lp(0))
        assert saddle.c[0] < 0.0 < saddle.c[2]
        x = np.clip(np.zeros(saddle.num_primal), saddle.l, saddle.u)
        x[0] = x[2] = np.inf
        report = kkt_error(saddle, x, np.zeros(saddle.num_dual))
        assert np.isnan(report.primal_objective)
        assert np.isnan(report.duality_gap)

    def test_infinite_reduced_cost_gives_nan_residual_without_warning(self):
        # K'y = -inf makes r_0 = +inf, which a finite lower bound admits as
        # lambda_0, so r - lambda is inf - inf; the suite makes a warning an error
        saddle = pl.to_saddle(
            pl.LpProblem(c=[1.0, 1.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0],
                         eq_matrix=[[0.0, 1.0]], eq_rhs=[0.0])
        )
        report = kkt_error(saddle, np.zeros(2), np.array([-np.inf, 0.0]))
        assert report.reduced_costs[0] == np.inf
        assert np.isnan(report.dual_residual)

    def test_residual_norms_match_plain_formula(self):
        # below overflow the norms are the plain sqrt of the summed squares,
        # each sum the solver's inner product
        rng = np.random.default_rng(4)
        for _ in range(50):
            saddle, x, y = random_small_saddle(rng)
            x = x * 10.0 ** rng.uniform(-5, 5)
            report = kkt_error(saddle, x, y)
            kx = saddle.K.matvec(x)
            m1 = saddle.m1
            ineq = np.maximum(saddle.q[:m1] - kx[:m1], 0.0)
            eq = kx[m1:] - saddle.q[m1:]
            assert report.primal_residual == math.sqrt(dot(ineq, ineq) + dot(eq, eq))
            r = saddle.c - saddle.K.rmatvec(y)
            lam = reduced_cost_projection(r, saddle.l, saddle.u)
            assert report.dual_residual == math.sqrt(dot(r - lam, r - lam))
            assert report.primal_objective == dot(saddle.c, x)


class TestReducedCosts:
    def test_clamp_matrix(self):
        l = np.array([0.0, -np.inf, 0.0, -np.inf])
        u = np.array([np.inf, 0.0, 1.0, np.inf])
        r = np.array([2.0, 2.0, -2.0, 2.0])
        lam, _ = termination._reduced_costs(r, l, u, np.isfinite(l), np.isfinite(u))
        # lower-bounded: keeps positive part; upper-bounded: keeps negative
        # part; boxed: keeps either; free: forced to zero
        np.testing.assert_array_equal(lam, [2.0, 0.0, -2.0, 0.0])

    def test_negative_at_lower_rejected(self):
        lam, _ = termination._reduced_costs(np.array([-3.0]), np.zeros(1), np.full(1, np.inf), np.array([True]), np.array([False]))
        np.testing.assert_array_equal(lam, [0.0])

    def test_bound_objective_term(self):
        lam = np.array([2.0, -3.0])
        l = np.array([1.0, 0.0])
        u = np.array([5.0, 2.0])
        assert bound_objective_term(lam, l, u) == pytest.approx(1 * 2 + 2 * -3)
        # lam is its own projection here, and _reduced_costs sums the same term
        lam_again, term = termination._reduced_costs(lam, l, u, np.isfinite(l), np.isfinite(u))
        np.testing.assert_array_equal(lam_again, lam)
        assert term == bound_objective_term(lam, l, u)


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


def _finite_abs_max(v):
    finite = v[np.isfinite(v)]
    return float(np.max(np.abs(finite))) if finite.size else 0.0


def reference_primal_verdict(saddle, y_ray, tol):
    """``check_primal_infeasible`` restated with its data constants (the
    bound masks and the scale) computed in place from the problem data, and
    the solver's inner product."""
    yhat = termination._unit(y_ray)
    m1 = saddle.m1
    cone_violation = float(max(0.0, -yhat[:m1].min())) if m1 else 0.0
    rhat = -saddle.K.rmatvec(yhat)
    lamhat = reduced_cost_projection(rhat, saddle.l, saddle.u)
    attain = float(np.max(np.abs(rhat - lamhat))) if rhat.size else 0.0
    residual = max(cone_violation, attain)
    gain = dot(saddle.q, yhat) + bound_objective_term(lamhat, saddle.l, saddle.u)
    scale = max(1.0, math.sqrt(dot(saddle.q, saddle.q)), _finite_abs_max(saddle.l), _finite_abs_max(saddle.u))
    return CertificateVerdict(residual <= tol and gain >= tol * scale, residual, gain, gain / scale - residual)


def reference_dual_verdict(saddle, x_ray, tol):
    """``check_dual_infeasible`` restated in the same way."""
    d = termination._unit(x_ray)
    kd = saddle.K.matvec(d)
    m1 = saddle.m1
    residual = float(np.max(np.abs(kd[m1:]))) if kd[m1:].size else 0.0
    if m1:
        residual = max(residual, float(max(0.0, -kd[:m1].min())))
    lfin, ufin = np.isfinite(saddle.l), np.isfinite(saddle.u)
    for mask, excess in (
        (lfin & ~ufin, np.maximum(-d, 0.0)),
        (ufin & ~lfin, np.maximum(d, 0.0)),
        (lfin & ufin, np.abs(d)),
    ):
        if mask.any():
            residual = max(residual, float(np.max(excess[mask])))
    gain = -dot(saddle.c, d)
    scale = max(1.0, math.sqrt(dot(saddle.c, saddle.c)))
    return CertificateVerdict(residual <= tol and gain >= tol * scale, residual, gain, gain / scale - residual)


def assert_same_kkt(saddle, x, y, constants):
    report = kkt_error(saddle, x, y, constants)
    plain = kkt_error(saddle, x, y)
    for f in dataclasses.fields(report):
        a, b = getattr(report, f.name), getattr(plain, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    r = saddle.c - saddle.K.rmatvec(y)
    assert report.reduced_costs.tobytes() == reduced_cost_projection(r, saddle.l, saddle.u).tobytes()
    assert report.rel_primal == report.primal_residual / (1.0 + math.sqrt(dot(saddle.q, saddle.q)))
    assert report.rel_dual == report.dual_residual / (1.0 + math.sqrt(dot(saddle.c, saddle.c)))


def boxed_infeasible_lp(lower, upper):
    """x1 - x2 >= 1 and x2 - x1 >= 1 in a box: infeasible whatever the box,
    whose largest finite bound magnitude sets the certificate scale."""
    return pl.LpProblem(
        c=[1.0, -1.0], ineq_matrix=[[1.0, -1.0], [-1.0, 1.0]], ineq_rhs=[1.0, 1.0],
        lower=[lower, 0.0], upper=[upper, 1.0],
    )


def mixed_bounds_unbounded_lp():
    """min -x1 over x1 >= 0, x2 <= 5, 0 <= x3 <= 1 and a free x4, with
    x1 - (x2 - x3 - x4) / 10 >= -2: every kind of bound meets the ray check,
    and the row's small weights leave each one the largest violation along
    its coordinate."""
    return pl.LpProblem(
        c=[-1.0, 0.5, 1.0, 0.0], ineq_matrix=[[1.0, -0.1, 0.1, 0.1]], ineq_rhs=[-2.0],
        lower=[0.0, -np.inf, 0.0, -np.inf], upper=[np.inf, 5.0, 1.0, np.inf],
    )


_CHECKED_PROBLEMS = {
    "boxed_infeasible_lower_scale": lambda: boxed_infeasible_lp(-3000.0, 2000.0),
    "boxed_infeasible_upper_scale": lambda: boxed_infeasible_lp(-1000.0, 2000.0),
    "mixed_bounds_unbounded": mixed_bounds_unbounded_lp,
    "infeasible_lp_seed0": lambda: planted_infeasible_lp(0),
    "infeasible_lp_seed1": lambda: planted_infeasible_lp(1),
    "unbounded_lp_seed0": lambda: planted_unbounded_lp(0),
    "unbounded_lp_seed1": lambda: planted_unbounded_lp(1),
    "primal_infeasible_toy": pl.generate_primal_infeasible_toy,
    "dual_infeasible_toy": pl.generate_dual_infeasible_toy,
}


class TestCheckConstants:
    """``solve`` hands every check the problem's constants, computed once;
    a direct call computes them itself.  The verdicts are those of checks
    that compute every constant in place."""

    @staticmethod
    def assert_same_verdicts(saddle, constants, y_ray, x_ray):
        verdicts = 0
        for check, reference, ray in (
            (check_primal_infeasible, reference_primal_verdict, y_ray),
            (check_dual_infeasible, reference_dual_verdict, x_ray),
        ):
            if ray is not None and np.any(ray):
                expected = reference(saddle, ray, 1e-10)
                assert check(saddle, ray, 1e-10, constants) == expected
                assert check(saddle, ray, 1e-10) == expected
                # solve passes the norm it computed once
                assert check(saddle, ray, 1e-10, constants, norm=termination._norm(ray)) == expected
                verdicts += 1
        return verdicts

    @pytest.mark.parametrize("name", sorted(_CHECKED_PROBLEMS))
    def test_same_verdicts_with_and_without(self, name):
        problem = _CHECKED_PROBLEMS[name]()
        saddle = pl.to_saddle(problem)
        constants = check_constants(saddle)

        report = pl.solve(problem)
        assert report.status in (pl.STATUS_PRIMAL_INFEASIBLE, pl.STATUS_DUAL_INFEASIBLE)
        ray = report.certificate["ray"]
        if report.status == pl.STATUS_PRIMAL_INFEASIBLE:
            assert check_primal_infeasible(saddle, ray, 1e-10, constants).valid
            self.assert_same_verdicts(saddle, constants, ray, None)
        else:
            assert check_dual_infeasible(saddle, ray, 1e-10, constants).valid
            self.assert_same_verdicts(saddle, constants, None, ray)

        # both signs of every coordinate direction
        for sign in (1.0, -1.0):
            for i in range(saddle.num_primal):
                self.assert_same_verdicts(saddle, constants, None, sign * np.eye(saddle.num_primal)[i])
            for j in range(saddle.num_dual):
                self.assert_same_verdicts(saddle, constants, sign * np.eye(saddle.num_dual)[j], None)

        # points and rays along an unscaled fixed-step run, valid or not
        state = pl.IterateState.initial(saddle)
        step = pl.StepState(0.9 / pl.spectral_norm_estimate(saddle.K).value, 1.0)
        z0 = prev = (state.x.copy(), state.y.copy())
        verdicts = 0
        for k in range(1, 201):
            pl.pdhg_step(state, saddle, step)
            cur = (state.x.copy(), state.y.copy())
            assert_same_kkt(saddle, *cur, constants)
            if k % 10 == 0:
                for cand in extract_certificates(prev, cur, z0, k):
                    verdicts += self.assert_same_verdicts(saddle, constants, cand.y, cand.x)
            prev = cur
        assert verdicts > 0


def _with_bounds(saddle, rng, kind):
    """``saddle`` with some variables fixed (l == u) or every one free."""
    l, u = saddle.l.copy(), saddle.u.copy()
    if kind == "free":
        l[:], u[:] = -np.inf, np.inf
    else:
        fixed = rng.random(l.shape[0]) < 0.6
        fixed[rng.integers(l.shape[0])] = True
        value = np.where(np.isfinite(l), l, np.where(np.isfinite(u), u, rng.standard_normal(l.shape[0])))
        l[fixed] = u[fixed] = value[fixed]
    return dataclasses.replace(saddle, l=l, u=u)


def _random_ray(rng, size, head):
    """A nonzero ray: normal, or entries in {-1, 0, 1} for ties at zero,
    with its first ``head`` entries made nonnegative half the time."""
    while True:
        ray = rng.standard_normal(size) if rng.random() < 0.5 else rng.integers(-1, 2, size).astype(float)
        if rng.random() < 0.5:
            ray[:head] = np.abs(ray[:head])
        if np.any(ray):
            return ray * 10.0 ** rng.uniform(-3, 3)


class TestChecksOnRandomDraws:
    """The checks and the KKT error agree byte for byte with the in-file
    references on random small problems, points and rays, beyond the nine
    fixed problems of TestCheckConstants: bounds of every kind, fixed
    variables (l == u) and problems whose variables are all free."""

    @pytest.mark.parametrize("kind", ["random", "fixed", "free"])
    def test_same_as_the_references(self, kind):
        rng = np.random.default_rng({"random": 35, "fixed": 36, "free": 37}[kind])
        valid = 0
        for _ in range(300 if kind == "random" else 100):
            saddle, x, y = random_small_saddle(rng)
            if kind != "random":
                saddle = _with_bounds(saddle, rng, kind)
                x = np.clip(x, saddle.l, saddle.u)
            constants = check_constants(saddle)
            assert_same_kkt(saddle, x, y, constants)
            report = kkt_error(saddle, x, y, constants)
            r = saddle.c - saddle.K.rmatvec(y)
            lam = reduced_cost_projection(r, saddle.l, saddle.u)
            assert report.dual_residual == math.sqrt(dot(r - lam, r - lam))
            assert report.dual_objective == dot(saddle.q, y) + bound_objective_term(lam, saddle.l, saddle.u)
            # a loose tolerance lets some rays pass, a tight one few, and a
            # zero one tests the rule's equality case on exact rays
            tol = (0.0, 1e-10, 0.5)[rng.integers(3)]
            for check, reference, size, head in (
                (check_primal_infeasible, reference_primal_verdict, saddle.num_dual, saddle.m1),
                (check_dual_infeasible, reference_dual_verdict, saddle.num_primal, 0),
            ):
                if not size:
                    continue
                ray = _random_ray(rng, size, head)
                expected = reference(saddle, ray, tol)
                for verdict in (
                    check(saddle, ray, tol),
                    check(saddle, ray, tol, constants),
                    check(saddle, ray, tol, constants, norm=termination._norm(ray)),
                ):
                    assert verdict == expected
                    assert np.array([verdict.residual, verdict.gain, verdict.margin]).tobytes() == np.array(
                        [expected.residual, expected.gain, expected.margin]
                    ).tobytes()
                valid += expected.valid
        assert valid > 0
