import json
import logging

import numpy as np
import pytest
import scipy.optimize

import pdhg_lp as pl

from conftest import random_feasible_lp


def linprog_reference(problem):
    """Objective value from an independent simplex/IPM solver."""
    g = problem.ineq_matrix.toarray()
    a = problem.eq_matrix.toarray()
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(problem.lower, problem.upper)
    ]
    res = scipy.optimize.linprog(
        problem.c,
        A_ub=-g if g.size else None,
        b_ub=-problem.ineq_rhs if g.size else None,
        A_eq=a if a.size else None,
        b_eq=problem.eq_rhs if a.size else None,
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


class TestBasicSolves:
    def test_toy_with_default_config(self):
        report = pl.solve(pl.generate_bilinear_toy())
        assert report.status == pl.STATUS_OPTIMAL
        assert report.solved
        np.testing.assert_allclose(report.x, [3.0], atol=1e-6)
        np.testing.assert_allclose(report.y, [0.0], atol=1e-6)
        assert report.objective_value == pytest.approx(0.0, abs=1e-8)
        assert report.restarts > 0
        assert report.matvecs > 0
        assert report.dims == (1, 0, 1)
        assert report.residual_history
        assert report.certificate is None

    def test_vanilla_baseline(self):
        report = pl.solve_vanilla(pl.generate_bilinear_toy(), step_size=0.2, max_iters=5000)
        assert report.status == pl.STATUS_OPTIMAL
        np.testing.assert_allclose(report.x, [3.0], atol=1e-7)

    def test_bounds_only_problem(self):
        # no rows at all: the box minimizer is found at the initial point
        problem = pl.LpProblem(c=[1.0, -1.0], lower=[0.0, 0.0], upper=[2.0, 2.0])
        report = pl.solve(problem)
        assert report.status == pl.STATUS_OPTIMAL
        np.testing.assert_allclose(report.x, [0.0, 2.0], atol=1e-6)
        assert report.objective_value == pytest.approx(-2.0, abs=1e-6)

    def test_matches_simplex_reference(self):
        for seed in (0, 1, 2):
            problem = random_feasible_lp(seed, n=8, m_ineq=5, m_eq=2, spread=0.5)
            report = pl.solve(problem)
            assert report.status == pl.STATUS_OPTIMAL
            want = linprog_reference(problem)
            assert report.objective_value == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_maximization_sign_and_offset(self):
        # max 2x + 1 s.t. x <= 3 entered in internal minimization form
        problem = pl.LpProblem(
            c=[-2.0],
            ineq_matrix=[[-1.0]],
            ineq_rhs=[-3.0],
            objective_offset=-1.0,
            objective_sign=-1,
        )
        report = pl.solve(problem)
        assert report.status == pl.STATUS_OPTIMAL
        assert report.objective_value == pytest.approx(7.0, abs=1e-6)
        assert report.dual_objective_value == pytest.approx(7.0, abs=1e-6)


class TestStatuses:
    def test_iteration_limit_at_zero(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=1e-12, iteration_limit=0)
        )
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert report.status == pl.STATUS_ITERATION_LIMIT
        assert report.iterations == 0
        # the report still carries the KKT state of the initial point
        assert report.kkt.rel_primal > 0

    def test_time_limit(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(time_limit_sec=0.0, tol_optimal=1e-16)
        )
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert report.status == pl.STATUS_TIME_LIMIT
        assert report.iterations == 0

    def test_divergent_fixed_step(self):
        # s ||K|| = 10: the iteration cannot converge (it oscillates inside
        # the box or blows up); either way the driver reports a clean
        # non-optimal status and a finite iterate
        report = pl.solve_vanilla(pl.generate_bilinear_toy(), step_size=10.0, max_iters=20000)
        assert report.status in (pl.STATUS_NUMERICAL_ERROR, pl.STATUS_ITERATION_LIMIT)
        assert np.all(np.isfinite(report.x))
        assert np.all(np.isfinite(report.y))

    def test_primal_infeasible_detected(self):
        report = pl.solve(pl.generate_primal_infeasible_toy())
        assert report.status == pl.STATUS_PRIMAL_INFEASIBLE
        cert = report.certificate
        assert cert["kind"] == "primal_infeasibility"
        assert cert["margin"] >= 1e-8
        assert cert["source"] in ("difference", "normalized")
        np.testing.assert_allclose(cert["ray"], [-1.0], atol=1e-12)
        # the certificate is checked against the original data
        verdict = pl.check_primal_infeasible(
            pl.to_saddle(pl.generate_primal_infeasible_toy()), cert["ray"], 1e-10
        )
        assert verdict.valid

    def test_dual_infeasible_detected(self):
        report = pl.solve(pl.generate_dual_infeasible_toy())
        assert report.status == pl.STATUS_DUAL_INFEASIBLE
        cert = report.certificate
        assert cert["kind"] == "dual_infeasibility"
        assert cert["margin"] >= 1e-8
        verdict = pl.check_dual_infeasible(
            pl.to_saddle(pl.generate_dual_infeasible_toy()), cert["ray"], 1e-10
        )
        assert verdict.valid

    def test_detection_can_be_disabled(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(iteration_limit=500),
            detect_infeasibility=False,
        )
        report = pl.solve(pl.generate_primal_infeasible_toy(), config)
        assert report.status == pl.STATUS_ITERATION_LIMIT

    def test_fixed_restart_needs_period_or_sharpness(self):
        config = pl.SolverConfig(restart=pl.RestartConfig(scheme="fixed"))
        with pytest.raises(pl.NonPositiveInput):
            pl.solve(pl.generate_bilinear_toy(), config)


class TestTrajectory:
    def vanilla_config(self, iters):
        return pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=iters),
            scaling="none",
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode="fixed", fixed_step=0.2),
            weight=pl.WeightPolicy(mode="fixed", fixed_weight=1.0),
        )

    def test_driver_reproduces_plain_iteration_exactly(self):
        problem = pl.generate_bilinear_toy()
        report = pl.solve(problem, self.vanilla_config(100))
        assert report.status == pl.STATUS_ITERATION_LIMIT
        assert report.iterations == 100

        saddle = pl.to_saddle(problem)
        state = pl.IterateState.initial(saddle)
        step = pl.StepState(0.2, 1.0)
        for _ in range(100):
            pl.pdhg_step(state, saddle, step)
        np.testing.assert_array_equal(report.x, state.x)
        np.testing.assert_array_equal(report.y, state.y)

    def test_fixed_restart_count(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=20),
            scaling="none",
            restart=pl.RestartConfig(scheme="fixed", period=4),
            step=pl.StepPolicy(mode="fixed", fixed_step=0.2),
            weight=pl.WeightPolicy(mode="fixed", fixed_weight=1.0),
            detect_infeasibility=False,
        )
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert report.iterations == 20
        assert report.restarts == 5  # every 4 iterations

    def test_restarting_from_average_accelerates_toy(self):
        def config(scheme):
            return pl.SolverConfig(
                termination=pl.TerminationCriteria(tol_optimal=1e-8, iteration_limit=5000),
                scaling="none",
                restart=pl.RestartConfig(scheme=scheme),
                step=pl.StepPolicy(mode="fixed", fixed_step=0.2),
                weight=pl.WeightPolicy(mode="fixed", fixed_weight=1.0),
            )

        report_plain = pl.solve(pl.generate_bilinear_toy(), config("none"))
        report_restarted = pl.solve(pl.generate_bilinear_toy(), config("adaptive"))
        assert report_plain.status == pl.STATUS_OPTIMAL
        assert report_restarted.status == pl.STATUS_OPTIMAL
        assert report_restarted.restarts > 0
        assert report_restarted.iterations < report_plain.iterations

    def test_callback_sees_every_check(self):
        seen = []

        def cb(iteration, kkt, step):
            seen.append((iteration, kkt.rel_gap, step.step_size))

        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=10),
            check_interval=2,
        )
        pl.solve(pl.generate_bilinear_toy(), config, callback=cb)
        assert [entry[0] for entry in seen] == [0, 2, 4, 6, 8, 10]

    def test_history_can_be_disabled(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(iteration_limit=10),
            record_history=False,
        )
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert report.residual_history == []


class TestSpectralEstimate:
    """||K|| is estimated only for a rule that reads it."""

    @pytest.fixture
    def estimates(self, monkeypatch):
        calls = []
        real = pl.solver.spectral_norm_estimate

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(pl.solver, "spectral_norm_estimate", counting)
        return calls

    def solve(self, **fields):
        limit = pl.TerminationCriteria(iteration_limit=50)
        return pl.solve(random_feasible_lp(1), pl.SolverConfig(termination=limit, **fields))

    def test_adaptive_step_skips_it(self, estimates):
        report = self.solve()
        assert estimates == []
        assert report.timings["power_iteration_sec"] == 0.0
        assert report.notes == []

    def test_given_fixed_step_skips_it(self, estimates):
        self.solve(step=pl.StepPolicy(mode="fixed", fixed_step=0.1))
        assert estimates == []

    def test_default_fixed_step_runs_it(self, estimates):
        report = self.solve(step=pl.StepPolicy(mode="fixed"))
        assert len(estimates) == 1
        assert report.timings["power_iteration_sec"] > 0.0

    def test_sharpness_restarts_run_it(self, estimates):
        report = self.solve(restart=pl.RestartConfig(scheme="fixed", sharpness=1.0))
        assert len(estimates) == 1
        assert report.restarts_by_reason["fixed_period"] == report.restarts > 0


class TestCounts:
    def test_restarts_split_by_reason(self):
        report = pl.solve(random_feasible_lp(2), pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=1e-8, iteration_limit=3000)))
        by_reason = report.restarts_by_reason
        assert set(by_reason) == {"gap_decay", "artificial", "fixed_period"}
        assert sum(by_reason.values()) == report.restarts
        assert by_reason["gap_decay"] > 0 and by_reason["artificial"] > 0
        assert by_reason["fixed_period"] == 0

    def test_adaptive_trials_count_rejections(self):
        # the toy starts with an oversized step, so some trials are rejected
        report = pl.solve(pl.generate_bilinear_toy())
        assert report.step_trials > report.iterations

    def test_fixed_step_is_one_trial_per_iteration(self):
        config = TestTrajectory().vanilla_config(30)
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert report.step_trials == report.iterations == 30
        assert report.restarts_by_reason == {"gap_decay": 0, "artificial": 0, "fixed_period": 0}

    def test_report_counts_block(self):
        report = pl.solve(pl.generate_bilinear_toy())
        counts = pl.report_to_dict(report)["counts"]
        assert counts["step_trials"] == report.step_trials
        assert counts["restarts_by_reason"] == report.restarts_by_reason
        json.dumps(counts)


class TestDeterminism:
    def test_reports_identical_across_runs(self):
        problem = random_feasible_lp(5, n=12, m_ineq=8, spread=1.0)
        a = pl.solve(problem)
        b = pl.solve(problem)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.iterations == b.iterations
        assert a.restarts == b.restarts
        assert a.matvecs == b.matvecs
        assert a.gap_evaluations == b.gap_evaluations
        da = pl.report_to_dict(a)
        db = pl.report_to_dict(b)
        del da["timings"], db["timings"]
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


class TestLogging:
    def test_logs_every_multiple_of_log_interval(self, caplog):
        # 320 iterations under the default check interval of 64: 100, 200 and
        # 300 are not check points, yet each must get its own log line
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=1000))
        quiet = pl.solve(problem)
        assert quiet.iterations == 320
        with caplog.at_level(logging.INFO, logger="pdhg_lp"):
            logged = pl.solve(problem, pl.SolverConfig(log_interval=100))
        iterations = [int(rec.getMessage().split()[1]) for rec in caplog.records]
        assert iterations == [0, 100, 200, 300]
        assert logged.status == quiet.status
        assert logged.iterations == quiet.iterations
        np.testing.assert_array_equal(logged.x, quiet.x)
        np.testing.assert_array_equal(logged.y, quiet.y)
