import itertools
import json
import logging
import math
import multiprocessing
import os
import queue
import sys
import time
import tracemalloc
import types
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

import pdhg_lp as pl
from pdhg_lp import restarts, scaling as scaling_module, sparse
from pdhg_lp.scaling import ROW_ORDER_MIN_NNZ

from conftest import planted_infeasible_lp, planted_unbounded_lp, random_feasible_lp

# The adaptive step rule, which the default Halpern step replaced
ADAPTIVE = pl.StepPolicy(mode="adaptive")


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

    @pytest.mark.parametrize("stop", ["rejected", "underflow"])
    def test_adaptive_step_stops_keep_the_last_good_iterate(self, stop, monkeypatch):
        # The adaptive step's two numerical-error stops, after its 100th
        # step, which is no check point: MAX_RETRIES trials rejected in a
        # row, and a step size that underflows.  The report holds the
        # state's iterate, that of a solve limited to 100 iterations.
        problem = random_feasible_lp(0)
        limit = pl.TerminationCriteria(iteration_limit=100)
        limited = pl.solve(problem, pl.SolverConfig(termination=limit, step=ADAPTIVE))
        real = pl.solver.adaptive_step

        def failing_at_100(state, saddle, step, **kwargs):
            if state.total_count < 100:
                return real(state, saddle, step, **kwargs)
            if stop == "underflow":
                raise pl.StepSizeUnderflow("step size fell below the floor")
            return state, step, False

        monkeypatch.setattr(pl.solver, "adaptive_step", failing_at_100)
        report = pl.solve(problem, pl.SolverConfig(step=ADAPTIVE))
        reasons = {
            "rejected": f"adaptive step rejected {pl.stepsize.MAX_RETRIES} trials in a row",
            "underflow": "step size fell below the floor",
        }
        assert (report.status, report.reason) == (pl.STATUS_NUMERICAL_ERROR, reasons[stop])
        assert report.iterations == limited.iterations == 100
        assert limited.status == pl.STATUS_ITERATION_LIMIT
        assert report.x.tobytes() == limited.x.tobytes()
        assert report.y.tobytes() == limited.y.tobytes()
        assert report.residual_history == limited.residual_history[:-1]

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

    def test_fixed_restart_scheme_rejected(self):
        # the fixed-period scheme and its period are gone
        with pytest.raises(pl.NonPositiveInput, match="unknown restart scheme 'fixed'"):
            pl.SolverConfig(restart=pl.RestartConfig(scheme="fixed"))
        with pytest.raises(TypeError):
            pl.RestartConfig(period=16)

    def test_unbounded_lp_with_overflowing_candidate_rays(self, monkeypatch):
        # Every check also tests its candidates scaled by 1e200, whose squared
        # norms overflow, and with an infinite entry, which have no norm.  The
        # solve must still end as it does without them, with no exception and
        # no warning, and its certificate must be a valid ray; a scaled copy
        # of a valid primal ray is valid too, at its rescaled norm.
        problem = planted_unbounded_lp(0)
        config = pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=10_000))
        plain = pl.solve(problem, config)
        real, real_hits = pl.solver._candidates, pl.solver._ray_hits
        overflowed, huge_norms = [], []

        def with_huge_copies(*args):
            candidates = list(real(*args))
            for cand in list(candidates):
                huge = pl.termination.CertificateCandidate(cand.kind, cand.x * 1e200, cand.y * 1e200)
                overflowed.append(not math.isfinite(huge.x @ huge.x))
                infinite = pl.termination.CertificateCandidate(cand.kind, huge.x.copy(), huge.y.copy())
                infinite.x[0] = infinite.y[0] = np.inf
                candidates += [huge, infinite]
            return candidates

        def recording(*args):
            hits, shows = real_hits(*args)
            huge_norms.extend(norm for *_, norm in hits[1] if norm > 1e150)
            return hits, shows

        monkeypatch.setattr(pl.solver, "_candidates", with_huge_copies)
        monkeypatch.setattr(pl.solver, "_ray_hits", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pl.solve(problem, config)
        assert any(overflowed) and huge_norms and all(math.isfinite(norm) for norm in huge_norms)
        assert plain.status == report.status == pl.STATUS_DUAL_INFEASIBLE
        assert report.iterations == plain.iterations
        assert pl.check_dual_infeasible(pl.to_saddle(problem), report.certificate["ray"], 1e-10).valid


class TestStepFreeze:
    """Once a normalized candidate ray passes an infeasibility check at
    FREEZE_TOLERANCE, the adaptive step is frozen at min(s, 0.9 / ||K~||)."""

    @staticmethod
    def config(**fields):
        return pl.SolverConfig(**{"step": ADAPTIVE, **fields})

    @staticmethod
    def frozen(report):
        return [note for note in report.notes if note.startswith("adaptive step frozen")]

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_unbounded_lp_certified(self, seed):
        # under the adaptive step alone these stop at the iteration limit
        problem = planted_unbounded_lp(seed)
        config = self.config(termination=pl.TerminationCriteria(iteration_limit=10_000))
        report = pl.solve(problem, config)
        assert report.status == pl.STATUS_DUAL_INFEASIBLE
        assert report.iterations < 10_000
        assert len(self.frozen(report)) == 1
        assert report.timings["power_iteration_sec"] > 0.0
        verdict = pl.check_dual_infeasible(pl.to_saddle(problem), report.certificate["ray"], 1e-10)
        assert verdict.valid

    def test_feasible_lps_never_freeze(self):
        # the criterion-8 LPs keep the adaptive step, and so their iterates
        for seed in range(20):
            report = pl.solve(random_feasible_lp(seed), self.config())
            assert report.status == pl.STATUS_OPTIMAL
            assert self.frozen(report) == [], seed

    def test_frozen_step_bounded_by_norm_estimate(self):
        problem = pl.generate_dual_infeasible_toy()
        report = pl.solve(problem, self.config())
        assert report.status == pl.STATUS_DUAL_INFEASIBLE
        [note] = self.frozen(report)
        assert note.startswith("adaptive step frozen at iteration 64, s = ")
        saddle = pl.to_saddle(problem)
        scaled = pl.apply_scaling(saddle, pl.combined_rescale(saddle.K))
        norm_k = pl.spectral_norm_estimate(scaled.K, tol=1e-4, max_iters=5000, seed=0).value
        assert report.step_size <= 0.9 / norm_k

    @pytest.mark.parametrize(
        "fields",
        [
            {"step": pl.StepPolicy(mode="fixed")},
            {"step": pl.StepPolicy(mode="fixed", fixed_step=0.5)},
        ],
        ids=["fixed_step", "given_fixed_step"],
    )
    def test_only_a_detecting_adaptive_step_freezes(self, fields):
        config = self.config(termination=pl.TerminationCriteria(iteration_limit=2000), **fields)
        report = pl.solve(planted_unbounded_lp(0), config)
        assert self.frozen(report) == []


def ray_hits_checking_every_ray(original, candidates, unfrozen):
    """``solver._ray_hits`` without its skips: every candidate ray with a
    finite nonzero norm goes through its full check."""
    hits = ([], [])
    shows = False
    checks = (pl.check_primal_infeasible, pl.check_dual_infeasible)
    for cand in candidates:
        for check, ray, kind_hits in zip(checks, (cand.y, cand.x), hits):
            norm = pl.termination._norm(ray)
            if 0.0 < norm < math.inf:
                verdict = check(original.unscaled, ray, pl.solver.TOL_INFEASIBLE, original.constants, norm=norm)
                if verdict.valid:
                    kind_hits.append((verdict, cand, ray, norm))
                shows = shows or (cand.kind == "normalized" and pl.solver._shows_ray(verdict))
    return hits, shows


def unscaled_original(problem):
    """The solve's owner of the way back to ``problem`` without a scaling:
    its checks read ``to_saddle(problem)``."""
    return pl.solver._Original(problem, "none", math.inf)


class TestRayChecksSkipProducts:
    """A ray check skips its product when a part without one already rules
    the ray out; no verdict, freeze or certificate moves."""

    PROBLEMS = [planted(seed) for planted in (planted_unbounded_lp, planted_infeasible_lp) for seed in range(4)] + [
        pl.generate_bilinear_toy(),
        pl.generate_primal_infeasible_toy(),
        pl.generate_dual_infeasible_toy(),
    ]

    @pytest.mark.parametrize("step", [pl.StepPolicy(), ADAPTIVE], ids=["halpern", "adaptive"])
    @pytest.mark.parametrize("index", range(len(PROBLEMS)))
    def test_same_status_and_certificate_as_checking_every_ray(self, monkeypatch, step, index):
        problem = self.PROBLEMS[index]
        config = pl.SolverConfig(step=step, termination=pl.TerminationCriteria(iteration_limit=10_000))
        skipping = pl.solve(problem, config)
        monkeypatch.setattr(pl.solver, "_ray_hits", ray_hits_checking_every_ray)
        full = pl.solve(problem, config)
        assert (skipping.status, skipping.iterations, skipping.notes) == (full.status, full.iterations, full.notes)
        assert skipping.x.tobytes() == full.x.tobytes() and skipping.y.tobytes() == full.y.tobytes()
        if full.certificate is None:
            assert skipping.certificate is None
        else:
            assert skipping.certificate.keys() == full.certificate.keys()
            for key, value in full.certificate.items():
                got = skipping.certificate[key]
                assert (got.tobytes() == value.tobytes()) if key == "ray" else (got == value), key
        assert skipping.matvecs <= full.matvecs

    def test_a_ray_that_shows_is_checked_while_unfrozen(self):
        # a certified dual ray pushed 1e-5 out of the cone fails at tol but
        # shows at FREEZE_TOLERANCE: its product is skipped only once the
        # step is frozen (or when it is not a normalized candidate)
        problem = planted_infeasible_lp(0)
        original = unscaled_original(problem)
        saddle0 = original.unscaled
        y = pl.solve(problem).certificate["ray"].copy()
        y[np.argmin(y[: saddle0.m1])] -= 1e-5
        x = np.zeros(saddle0.num_primal)
        for kind, unfrozen, products, shows in (
            ("normalized", True, 1, True),
            ("normalized", False, 0, False),
            ("difference", True, 0, False),
        ):
            candidate = pl.termination.CertificateCandidate(kind, x, y)
            before = saddle0.K.rmatvec_calls
            hits, ray_shows = pl.solver._ray_hits(original, [candidate], unfrozen)
            assert hits == ([], []) and ray_shows == shows
            assert saddle0.K.rmatvec_calls - before == products

    def test_zero_cost_primal_rays_take_no_product(self):
        # with c = 0 a primal ray gains nothing, so no x candidate is
        # multiplied by K; a normalized one still is while the step is unfrozen
        original = unscaled_original(pl.generate_pagerank(pl.PagerankSpec(num_nodes=300)))
        saddle0 = original.unscaled
        assert not saddle0.c.any()
        rng = np.random.default_rng(5)
        n, m = saddle0.num_primal, saddle0.num_dual
        points = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(3)]
        candidates = pl.extract_certificates(*points, 7)
        for unfrozen, products in ((False, 0), (True, 1)):
            before = saddle0.K.matvec_calls
            pl.solver._ray_hits(original, candidates, unfrozen)
            assert saddle0.K.matvec_calls - before == products


class TestHalpern:
    """The default step: reflected restarted Halpern PDHG at 0.998 / ||K~||."""

    def test_is_the_default(self):
        assert pl.SolverConfig().step == pl.StepPolicy(mode="halpern")

    def test_driver_reproduces_halpern_steps_exactly(self):
        # without restarts solve moves the iterate as the Halpern step does, and
        # reports the T(z) of its last step
        problem = random_feasible_lp(3)
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=300),
            restart=pl.RestartConfig(scheme="none"),
        )
        report = pl.solve(problem, config)
        assert report.status == pl.STATUS_ITERATION_LIMIT
        assert report.iterations == report.step_trials == 300
        # the scheme "none" never restarts
        assert report.restarts == 0
        assert report.restarts_by_reason == {"residual_decay": 0, "artificial": 0}

        saddle0 = pl.to_saddle(problem)
        scaling = pl.combined_rescale(saddle0.K, m1=saddle0.m1)
        saddle = pl.apply_scaling(saddle0, scaling)
        norm_k = pl.spectral_norm_estimate(saddle.K, tol=pl.solver.NORM_TOLERANCE).value
        step = pl.initialize_step_state(saddle, norm_k, config.step, config.weight)
        assert step.step_size == 0.998 / norm_k
        state = pl.IterateState.initial(saddle)
        for _ in range(300):
            pl.pdhg_step(state, saddle, step, halpern=True)
        x, y = pl.unscale_solution(*state.t_parts, scaling)
        assert report.x.tobytes() == x.tobytes()
        assert report.y.tobytes() == y.tobytes()
        assert report.step_size == step.step_size

    def test_first_check_reads_the_initial_point(self):
        # the iteration-0 check tests the state's t, which starts as z0; the
        # second solve runs in memory that the first one freed
        problem = random_feasible_lp(2)
        saddle0 = pl.to_saddle(problem)
        scaling = pl.combined_rescale(saddle0.K, m1=saddle0.m1)
        start = pl.IterateState.initial(pl.apply_scaling(saddle0, scaling))
        kkt = pl.kkt_error(saddle0, *pl.unscale_solution(start.x, start.y, scaling))
        del start
        for _ in range(2):
            report = pl.solve(problem)
            assert report.residual_history[0][:4] == (0, kkt.rel_primal, kkt.rel_dual, kkt.rel_gap)

    def test_restarts_on_residual_decay(self, monkeypatch):
        # the residual test runs every RESIDUAL_EVAL_INTERVAL epoch
        # iterations, through should_restart at RESIDUAL_SUFFICIENT_DECAY; in
        # between only the artificial cap can fire; no KKT error is evaluated
        # for the restart test
        decisions = []
        real = pl.solver.should_restart

        def recording(state, **kwargs):
            inner = state.inner_count
            assert kwargs["sufficient"] == restarts.RESIDUAL_SUFFICIENT_DECAY
            fire, why = real(state, **kwargs)
            decisions.append((inner, kwargs["residuals"], why))
            return fire, why

        monkeypatch.setattr(pl.solver, "should_restart", recording)
        report = pl.solve(random_feasible_lp(2))
        assert report.status == pl.STATUS_OPTIMAL
        by_reason = report.restarts_by_reason
        assert set(by_reason) == {"residual_decay", "artificial"}
        assert by_reason["residual_decay"] > 0
        assert report.gap_evaluations == 0
        assert report.step_trials == report.iterations
        tested = [inner for inner, r, _ in decisions if r is not None]
        assert tested and all(inner % restarts.RESIDUAL_EVAL_INTERVAL == 0 for inner in tested)
        assert all(why in (None, "artificial") for _, r, why in decisions if r is None)
        assert [why for _, _, why in decisions].count("residual_decay") == by_reason["residual_decay"]

    def test_unscaled_zero_row_sum_block_converges(self):
        # unscaled K is block diagonal: the difference rows of an even cycle
        # (norm 2, every row and column sums to zero) and a diagonal of norm
        # 1.5.  A norm estimate blind to the cycle block set the step to
        # 0.998 / 1.5 and the run never converged
        n, m = 100, 50
        rng = np.random.default_rng(0)
        cycle = scipy.sparse.diags([np.ones(n), -np.ones(n - 1), [-1.0]], [0, 1, 1 - n])
        diagonal = scipy.sparse.diags(np.linspace(0.5, 1.5, m))
        problem = pl.LpProblem(
            c=np.concatenate([rng.uniform(-1.0, 1.0, n), np.ones(m)]),
            eq_matrix=scipy.sparse.hstack([cycle, scipy.sparse.csr_matrix((n, m))]),
            eq_rhs=cycle @ rng.uniform(1.0, 9.0, n),
            ineq_matrix=scipy.sparse.hstack([scipy.sparse.csr_matrix((m, n)), diagonal]),
            ineq_rhs=np.ones(m),
            lower=0.0,
            upper=10.0,
        )
        config = pl.SolverConfig(scaling="none", termination=pl.TerminationCriteria(iteration_limit=10_000))
        report = pl.solve(problem, config)
        assert report.status == pl.STATUS_OPTIMAL
        # the estimate is within the norm tolerance's relative tol / 2 of
        # ||K|| = 2, and the step below 1 / ||K||
        assert abs(report.step_size / (0.998 / 2.0) - 1.0) <= pl.solver.NORM_TOLERANCE / 2
        assert report.step_size * 2.0 < 1.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "planted, status, check",
        [
            (planted_unbounded_lp, pl.STATUS_DUAL_INFEASIBLE, pl.check_dual_infeasible),
            (planted_infeasible_lp, pl.STATUS_PRIMAL_INFEASIBLE, pl.check_primal_infeasible),
        ],
        ids=["unbounded", "infeasible"],
    )
    def test_planted_lps_certified(self, seed, planted, status, check):
        problem = planted(seed)
        report = pl.solve(problem, pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=10_000)))
        assert report.status == status
        assert report.iterations < 10_000
        assert check(pl.to_saddle(problem), report.certificate["ray"], 1e-10).valid
        assert not any(note.startswith("adaptive step frozen") for note in report.notes)

    @pytest.mark.parametrize(
        "config",
        [
            pl.SolverConfig(),
            pl.SolverConfig(
                restart=pl.RestartConfig(scheme="none"),
                step=pl.StepPolicy(mode="fixed", fixed_step=0.4),
                weight=pl.WeightPolicy(mode="fixed"),
                termination=pl.TerminationCriteria(tol_optimal=1e-6),
            ),
        ],
        ids=["default", "custom"],
    )
    def test_config_block_reproduces_the_run(self, config):
        problem = random_feasible_lp(4)
        report = pl.solve(problem, config)
        echoed = pl.config_from_flags(json.loads(json.dumps(pl.report_to_dict(report)["config"])))
        assert echoed == config
        again = pl.solve(problem, echoed)
        first, second = pl.report_to_dict(report), pl.report_to_dict(again)
        del first["timings"], second["timings"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_reports_identical_across_runs_with_rows_reordered(self):
        # the Lanczos norm estimate and the row order are deterministic too
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=2500))
        a, b = (pl.report_to_dict(pl.solve(problem)) for _ in range(2))
        assert a["status"] == pl.STATUS_OPTIMAL
        del a["timings"], b["timings"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestScalingDeadline:
    """The time limit also holds between Ruiz sweeps and before the scaled
    working space is built."""

    def test_stop_during_ruiz_reports_time_limit_at_iteration_zero(self, monkeypatch):
        sweeps = []
        real_sweep = scaling_module._ruiz_sweep

        def slow_sweep(*args):
            sweeps.append(len(sweeps))
            time.sleep(0.3)  # past the 0.2 s limit after the first sweep
            return real_sweep(*args)

        scalings = []
        real_apply = pl.solver.apply_scaling

        def recording_apply(saddle, scaling):
            scalings.append(scaling)
            return real_apply(saddle, scaling)

        monkeypatch.setattr(scaling_module, "_ruiz_sweep", slow_sweep)
        monkeypatch.setattr(pl.solver, "apply_scaling", recording_apply)
        config = pl.SolverConfig(termination=pl.TerminationCriteria(time_limit_sec=0.2))
        report = pl.solve(random_feasible_lp(0), config)
        assert report.status == pl.STATUS_TIME_LIMIT
        assert report.iterations == 0
        assert sweeps == [0]
        # the working space is the original one, and only the check at
        # iteration 0 multiplies by K
        [scaling] = scalings
        assert scaling.is_identity
        assert report.matvecs == 2
        assert report.notes == ["spectral norm estimate hit its time limit; using best value"]

    @pytest.mark.parametrize("mode", pl.scaling.SCALING_MODES)
    def test_nothing_built_after_the_deadline(self, monkeypatch, mode):
        # a Ruiz sweep runs past the deadline (or it has passed before the
        # start); then combined_rescale returns the identity without the
        # Pock-Chambolle pass or the row order.  No pass builds a scaled
        # copy of K, with or without a deadline
        saddle = pl.to_saddle(pl.generate_pagerank(pl.PagerankSpec(num_nodes=3000)))
        assert saddle.K.nnz >= ROW_ORDER_MIN_NNZ
        real_sweep = scaling_module._ruiz_sweep

        def slow_sweep(*args):
            time.sleep(0.1)
            return real_sweep(*args)

        calls = []

        def recording(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(scaling_module, "_ruiz_sweep", slow_sweep)
        monkeypatch.setattr(pl.SparseMatrix, "scaled", recording("scaled", pl.SparseMatrix.scaled))
        for name in ("_pock_chambolle_scales", "length_order"):
            monkeypatch.setattr(scaling_module, name, recording(name, getattr(scaling_module, name)))
        deadline = time.perf_counter() + 0.05
        if mode == "none":
            time.sleep(0.06)
        scaling = pl.combined_rescale(saddle.K, mode=mode, m1=saddle.m1, deadline=deadline)
        assert scaling.is_identity
        assert calls == []
        # without a deadline both run where the mode asks for them
        pl.combined_rescale(saddle.K, mode=mode, m1=saddle.m1)
        assert calls.count("length_order") == 1
        assert calls.count("_pock_chambolle_scales") == (mode != "none")
        assert "scaled" not in calls

    def test_ruiz_stops_between_sweeps(self, monkeypatch):
        # the scaling module's clock reads `now`, which the third sweep moves
        # past the deadline: no fourth sweep starts
        now = [0.0]
        sweeps = []
        real_sweep = scaling_module._ruiz_sweep

        def counting(*args):
            sweeps.append(len(sweeps))
            if len(sweeps) == 3:
                now[0] = 2.0
            return real_sweep(*args)

        monkeypatch.setattr(scaling_module, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(scaling_module, "_ruiz_sweep", counting)
        matrix = pl.to_saddle(random_feasible_lp(1)).K
        # past the deadline not even K's entries are taken
        taken = []
        real_entries = scaling_module._entries
        monkeypatch.setattr(scaling_module, "_entries", lambda mat: taken.append(mat) or real_entries(mat))
        for mode in ("ruiz+pc", "logmean+ruiz+pc"):
            assert pl.combined_rescale(matrix, mode, deadline=0.0).is_identity
        assert sweeps == [] and taken == []
        assert pl.combined_rescale(matrix, "ruiz+pc", deadline=1.0).is_identity
        assert sweeps == [0, 1, 2] and taken == [matrix]
        sweeps.clear()
        full = pl.combined_rescale(matrix, "ruiz+pc", deadline=math.inf)
        assert len(sweeps) == 10
        assert full.row_scale.tobytes() == pl.combined_rescale(matrix, "ruiz+pc").row_scale.tobytes()


class TestTrajectory:
    def vanilla_config(self, iters):
        return pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=iters),
            scaling="none",
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode="fixed", fixed_step=0.2),
            weight=pl.WeightPolicy(mode="fixed"),
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

    @pytest.mark.parametrize("mode", ["fixed", "adaptive"])
    def test_driver_reproduces_scaled_steps_exactly(self, mode):
        # the plain-iteration check above, on a criterion-8 LP under the
        # default scaling and either step rule: solve's loop (one error state per
        # solve, cached check constants) moves the iterate exactly as the
        # public step functions do
        problem = random_feasible_lp(3)
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=300),
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode=mode),
            weight=pl.WeightPolicy(mode=mode),
        )
        report = pl.solve(problem, config)
        assert report.status == pl.STATUS_ITERATION_LIMIT
        assert report.iterations == 300

        saddle0 = pl.to_saddle(problem)
        scaling = pl.combined_rescale(saddle0.K)
        saddle = pl.apply_scaling(saddle0, scaling)
        norm_k = None
        if mode == "fixed":
            norm_k = pl.spectral_norm_estimate(saddle.K, tol=pl.solver.NORM_TOLERANCE).value
        step = pl.initialize_step_state(saddle, norm_k, config.step, config.weight)
        state = pl.IterateState.initial(saddle)
        for _ in range(300):
            if mode == "fixed":
                pl.pdhg_step(state, saddle, step)
            else:
                state, step, accepted = pl.adaptive_step(state, saddle, step)
                assert accepted
        x, y = pl.unscale_solution(state.x, state.y, scaling)
        assert report.x.tobytes() == x.tobytes()
        assert report.y.tobytes() == y.tobytes()
        assert report.step_size == step.step_size
        assert report.step_trials == state.trial_count

    def test_restarting_from_average_accelerates_toy(self):
        def config(scheme):
            return pl.SolverConfig(
                termination=pl.TerminationCriteria(tol_optimal=1e-8, iteration_limit=5000),
                scaling="none",
                restart=pl.RestartConfig(scheme=scheme),
                step=pl.StepPolicy(mode="fixed", fixed_step=0.2),
                weight=pl.WeightPolicy(mode="fixed"),
            )

        report_plain = pl.solve(pl.generate_bilinear_toy(), config("none"))
        report_restarted = pl.solve(pl.generate_bilinear_toy(), config("adaptive"))
        assert report_plain.status == pl.STATUS_OPTIMAL
        assert report_restarted.status == pl.STATUS_OPTIMAL
        assert report_restarted.restarts > 0
        assert report_restarted.iterations < report_plain.iterations

    def test_history_has_a_row_for_every_check(self, monkeypatch):
        monkeypatch.setattr(pl.solver, "CHECK_INTERVAL", 2)
        config = pl.SolverConfig(termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=10))
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert [row[0] for row in report.residual_history] == [0, 2, 4, 6, 8, 10]

    def test_history_rows_carry_step_size_and_primal_weight(self):
        report = pl.solve(pl.generate_bilinear_toy())
        assert report.status == pl.STATUS_OPTIMAL
        last = report.residual_history[-1]
        assert len(last) == 6
        assert last[0] == report.iterations  # the final iteration is the last check
        assert last[4] == report.step_size
        assert last[5] == report.primal_weight


class TestFixedStepStretches:
    """``solve`` runs the fixed step, like the Halpern step, in stretches
    between the loop's events (checks, log lines, restart tests, the
    iteration limit)."""

    def test_overflow_mid_stretch_keeps_the_last_good_iterate(self):
        # a unit step on the unscaled planted unbounded LP overflows inside
        # the stretch from the check at 64 to the one at 128
        problem = planted_unbounded_lp(0)
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(iteration_limit=5000),
            scaling="none",
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode="fixed", fixed_step=1.0),
            weight=pl.WeightPolicy(mode="fixed"),
        )
        report = pl.solve(problem, config)
        saddle = pl.to_saddle(problem)
        state = pl.IterateState.initial(saddle)
        with pytest.raises(pl.NonFiniteIterate) as err:
            for _ in range(5000):
                pl.pdhg_step(state, saddle, pl.StepState(1.0, 1.0))
        assert report.status == pl.STATUS_NUMERICAL_ERROR
        assert report.reason == str(err.value)
        assert report.iterations == state.total_count == 66
        assert report.x.tobytes() == state.x.tobytes()
        assert report.y.tobytes() == state.y.tobytes()
        assert np.isfinite(report.x).all() and np.isfinite(report.y).all()

    def test_report_of_an_overflow_stop_emits_no_warning(self):
        # the last good iterate of a step of 10 on the scaled planted
        # unbounded LP is near overflow: its KKT report forms infinities of
        # opposite sign, which give NaN and not a warning
        config = pl.SolverConfig(
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode="fixed", fixed_step=10.0),
            weight=pl.WeightPolicy(mode="fixed"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pl.solve(planted_unbounded_lp(0), config)
        assert report.status == pl.STATUS_NUMERICAL_ERROR
        assert report.reason.startswith("iterate became non-finite")

    def test_stretches_end_at_checks_log_lines_and_the_limit(self, caplog):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=1e-16, iteration_limit=100),
            step=pl.StepPolicy(mode="fixed"),
            log_interval=7,
        )
        with caplog.at_level(logging.INFO, logger="pdhg_lp"):
            report = pl.solve(random_feasible_lp(0), config)
        assert report.status == pl.STATUS_ITERATION_LIMIT
        assert report.iterations == 100
        assert [row[0] for row in report.residual_history] == [0, 64, 100]
        assert [int(rec.getMessage().split()[1]) for rec in caplog.records] == list(range(0, 99, 7))

    def test_default_stretches_end_at_points_checks_and_the_limit(self, monkeypatch):
        # every stretch of the default Halpern step on the criterion-8 LPs
        # ends at a point of the restart schedule, a check or the iteration
        # limit (these solves write no log line and have no deadline): the
        # artificial cap, tested only at points and checks, cuts none short
        ends = []
        real = pl.solver.pdhg_step
        every = restarts.RESIDUAL_EVAL_INTERVAL

        def recording(state, *args, **kwargs):
            result = real(state, *args, **kwargs)
            inner = state.inner_count
            ends.append((inner == 1 or inner % every == 0, state.total_count))
            return result

        monkeypatch.setattr(pl.solver, "pdhg_step", recording)
        config = pl.SolverConfig()
        for seed in range(20):
            assert pl.solve(random_feasible_lp(seed), config).status == pl.STATUS_OPTIMAL
        elsewhere = [
            total
            for at_point, total in ends
            if not (at_point or total % pl.solver.CHECK_INTERVAL == 0 or total == config.termination.iteration_limit)
        ]
        assert len(ends) > 20 * pl.solver.CHECK_INTERVAL // every
        assert elsewhere == []

    @pytest.mark.parametrize(
        "policy",
        (
            (pl.StepPolicy(mode="fixed", fixed_step=0.5), pl.WeightPolicy(mode="fixed")),
            (pl.StepPolicy(), pl.WeightPolicy()),
        ),
        ids=("fixed", "halpern"),
    )
    def test_time_limit_stops_at_the_same_step(self, policy, monkeypatch):
        # A clock that ticks once per read.  The loop reads it before a
        # stretch and the kernel before each later step of it, one read a
        # step as when the loop took one step at a time, so one more tick of
        # limit buys exactly one more step, inside a stretch or across the
        # check at 64 and the restart tests: the fixed step's gap tests at
        # 40, 80 and 120, and the Halpern step's residual and cap tests.
        # The Halpern step's norm estimate reads it too, before the first
        # step, so its stops start lower and need the wider range to pass 128.
        problem = random_feasible_lp(0)
        step, weight = policy
        stops = []
        for limit in range(40, 200):
            ticks = itertools.count()
            monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
            config = pl.SolverConfig(
                termination=pl.TerminationCriteria(tol_optimal=1e-16, time_limit_sec=float(limit)),
                step=step,
                weight=weight,
            )
            report = pl.solve(problem, config)
            assert report.status == pl.STATUS_TIME_LIMIT
            stops.append(report.iterations)
        assert stops == list(range(stops[0], stops[0] + 160))
        assert stops[0] < 40 and stops[-1] > 128


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
        report = self.solve(step=ADAPTIVE)
        assert estimates == []
        assert report.timings["power_iteration_sec"] == 0.0
        assert report.notes == []

    def test_halpern_step_runs_it(self, estimates):
        report = self.solve()
        assert len(estimates) == 1
        assert report.timings["power_iteration_sec"] > 0.0
        assert report.notes == []

    def test_given_fixed_step_skips_it(self, estimates):
        self.solve(step=pl.StepPolicy(mode="fixed", fixed_step=0.1))
        assert estimates == []

    def test_default_fixed_step_runs_it(self, estimates):
        report = self.solve(step=pl.StepPolicy(mode="fixed"))
        assert len(estimates) == 1
        assert report.timings["power_iteration_sec"] > 0.0

    @pytest.mark.parametrize("scaling", [pl.scaling.DEFAULT_SCALING, "ruiz+pc"])
    def test_constant_steps_stay_below_one_over_the_norm(self, scaling):
        # the norm tolerance leaves the estimate of ||K~|| low by a relative
        # error of at most about tol / 2, inside the Halpern step's 0.998 and
        # the fixed step's 0.9: each step times the dense ||K~|| is below 1
        # on every criterion-8 LP
        for seed in range(20):
            problem = random_feasible_lp(seed)
            saddle = pl.to_saddle(problem)
            k_tilde = pl.apply_scaling(saddle, pl.combined_rescale(saddle.K, mode=scaling, m1=saddle.m1)).K
            norm = np.linalg.norm(k_tilde.toarray(), 2)
            for mode in ("halpern", "fixed"):
                limit = pl.TerminationCriteria(iteration_limit=0)
                config = pl.SolverConfig(termination=limit, scaling=scaling, step=pl.StepPolicy(mode=mode))
                assert pl.solve(problem, config).step_size * norm < 1.0, (seed, mode)

    def test_time_limit_stops_it(self, estimates):
        # the singular values of K are spaced evenly from 1 down to 0.6, the
        # top two 1 and 0.999, so the Lanczos run takes a few dozen pairs of
        # products to settle even at the norm tolerance; a limit already
        # past when it starts stops it before the first pair
        n = 400
        sigma = np.linspace(1.0, 0.6, n)
        problem = pl.LpProblem(c=np.ones(n), ineq_matrix=np.diag(sigma), ineq_rhs=np.ones(n), lower=0.0)

        def config(**limits):
            term = pl.TerminationCriteria(**limits)
            return pl.SolverConfig(termination=term, scaling="none", step=pl.StepPolicy(mode="fixed"))

        unlimited = pl.solve(problem, config(iteration_limit=0))
        pairs = pl.spectral_norm_estimate(pl.SparseMatrix(np.diag(sigma)), tol=pl.solver.NORM_TOLERANCE).iterations
        assert unlimited.notes == [] and pairs > 20
        # two products for the restart test's initial KKT error, two for the
        # check at iteration 0 and two per pair
        assert unlimited.matvecs == 4 + 2 * pairs
        report = pl.solve(problem, config(time_limit_sec=0.0))
        assert len(estimates) == 2
        assert report.status == pl.STATUS_TIME_LIMIT
        assert report.iterations == 0
        # two products for the restart test's initial KKT error and two for
        # the check at iteration 0, none for the power iteration
        assert report.matvecs == 4
        assert report.notes == ["spectral norm estimate hit its time limit; using best value"]


class TestCounts:
    def test_restarts_split_by_reason(self):
        report = pl.solve(random_feasible_lp(2), pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=1e-8, iteration_limit=3000), step=ADAPTIVE))
        by_reason = report.restarts_by_reason
        assert set(by_reason) == {"residual_decay", "artificial"}
        assert sum(by_reason.values()) == report.restarts
        assert by_reason["residual_decay"] > 0 and by_reason["artificial"] > 0

    def test_adaptive_trials_count_rejections(self):
        # the toy starts with an oversized step, so some trials are rejected
        report = pl.solve(pl.generate_bilinear_toy(), pl.SolverConfig(step=ADAPTIVE))
        assert report.step_trials > report.iterations

    def test_fixed_step_is_one_trial_per_iteration(self):
        config = TestTrajectory().vanilla_config(30)
        report = pl.solve(pl.generate_bilinear_toy(), config)
        assert report.step_trials == report.iterations == 30
        assert report.restarts_by_reason == {"residual_decay": 0, "artificial": 0}

    def test_one_gap_evaluation_per_restart_decision(self, monkeypatch):
        # under PDHG the restart test evaluates the KKT error on the working
        # saddle once at the start, for the first reference, and once per
        # decision; a restart's new reference is the candidate's error, not
        # a second evaluation at the same point
        events = []
        working = []
        real_scaling, real_kkt, real_restart = pl.solver.apply_scaling, pl.solver.kkt_error, pl.solver.should_restart

        def scaling(*args):
            working.append(real_scaling(*args))
            return working[-1]

        def kkt(saddle, *args):
            if saddle is working[0]:
                events.append("kkt")
            return real_kkt(saddle, *args)

        def decide(state, **kwargs):
            assert kwargs["sufficient"] == restarts.KKT_SUFFICIENT_DECAY
            events.append("decide")
            return real_restart(state, **kwargs)

        monkeypatch.setattr(pl.solver, "apply_scaling", scaling)
        monkeypatch.setattr(pl.solver, "kkt_error", kkt)
        monkeypatch.setattr(pl.solver, "should_restart", decide)
        report = pl.solve(random_feasible_lp(0), pl.SolverConfig(step=ADAPTIVE))
        assert report.restarts > 0
        decisions = events.count("decide")
        assert events == ["kkt"] + ["kkt", "decide"] * decisions
        assert report.gap_evaluations == decisions + 1

    @pytest.mark.parametrize(
        "step", [pl.StepPolicy(), pl.StepPolicy(mode="fixed"), ADAPTIVE], ids=["default", "fixed", "adaptive"]
    )
    def test_solves_never_evaluate_the_normalized_gap(self, step, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve evaluated the normalized duality gap")

        monkeypatch.setattr(pl.solver, "normalized_duality_gap", refuse)
        report = pl.solve(random_feasible_lp(1), pl.SolverConfig(step=step))
        assert report.status == pl.STATUS_OPTIMAL
        assert report.restarts > 0

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
        quiet = pl.solve(problem, pl.SolverConfig(step=ADAPTIVE))
        assert quiet.iterations == 320
        with caplog.at_level(logging.INFO, logger="pdhg_lp"):
            logged = pl.solve(problem, pl.SolverConfig(step=ADAPTIVE, log_interval=100))
        iterations = [int(rec.getMessage().split()[1]) for rec in caplog.records]
        assert iterations == [0, 100, 200, 300]
        assert logged.status == quiet.status
        assert logged.iterations == quiet.iterations
        np.testing.assert_array_equal(logged.x, quiet.x)
        np.testing.assert_array_equal(logged.y, quiet.y)


class TestScaleInvariance:
    """Rescaling the data's rows or its cost changes the LP's units, not
    the solve."""

    @staticmethod
    def unbounded_lp_with_zero_rhs(row_scale, cost_scale):
        """min cost_scale (3x0 - 5x1 + 2x2) s.t. row_scale (3x0 - 5x1 + 4x2)
        >= 0, x0 free, x1 = -1, x2 >= 0: unbounded along (-4, 0, 3), and q = 0."""
        return pl.LpProblem(
            c=cost_scale * np.array([3.0, -5.0, 2.0]),
            ineq_matrix=row_scale * np.array([[3.0, -5.0, 4.0]]),
            ineq_rhs=[0.0],
            lower=[-np.inf, -1.0, 0.0],
            upper=[np.inf, -1.0, np.inf],
        )

    def test_zero_rhs_certified_whatever_the_cost_scale(self):
        # with q = 0 the weight started at 1 whatever ||c~||, and this LP,
        # rows 2^23 times the cost, ran to 250,000 iterations uncertified
        config = pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=2_000))
        report = pl.solve(self.unbounded_lp_with_zero_rhs(2.0**11, 2.0**-12), config)
        assert report.status == pl.STATUS_DUAL_INFEASIBLE
        assert report.iterations <= 1_000

    @staticmethod
    def unbounded_lp_with_scaled_rows(s0, s1, s2):
        """Rows s0 (x1 - 4x2) <= 0, s1 (-x0 + 3x1 - 6x2) = 24 s1 and
        s2 (-2x1 - 2x2 + x3) in [7.5 s2, 9.5 s2]; x0 = 1, x1 >= 0, x2 and x3
        free; min -3x0 + 2x1 + 5x2 - 3x3 + 5.  Unbounded."""
        ranged = np.array([0.0, -2.0, -2.0, 1.0])
        return pl.LpProblem(
            c=[-3.0, 2.0, 5.0, -3.0],
            ineq_matrix=np.array([[0.0, -s0, 4.0 * s0, 0.0], s2 * ranged, -s2 * ranged]),
            ineq_rhs=[0.0, 7.5 * s2, -9.5 * s2],
            eq_matrix=s1 * np.array([[-1.0, 3.0, -6.0, 0.0]]),
            eq_rhs=[24.0 * s1],
            lower=[1.0, 0.0, -np.inf, -np.inf],
            upper=[1.0, np.inf, np.inf, np.inf],
            objective_offset=5.0,
        )

    @pytest.mark.parametrize("scales", [(1.0, 1.0, 4096.0), (1.0, 2.0**-7, 4096.0)])
    def test_power_of_two_row_scales_move_no_bit_of_the_iterates(self, scales, monkeypatch):
        # the log-mean pass takes the row scale out before Ruiz, which on its
        # own found another equilibrium here: 95,104 and 196,864 iterations
        # at these scales against 448 at (1, 1, 1); with no candidate rays
        # the solve runs past the verdict to the iteration limit
        monkeypatch.setattr(pl.solver, "_candidates", lambda *args: [])
        config = pl.SolverConfig(termination=pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=512))
        plain = pl.solve(self.unbounded_lp_with_scaled_rows(1.0, 1.0, 1.0), config)
        scaled = pl.solve(self.unbounded_lp_with_scaled_rows(*scales), config)
        s0, s1, s2 = scales
        assert scaled.x.tobytes() == plain.x.tobytes()
        assert (scaled.y * np.array([s0, s2, s2, s1])).tobytes() == plain.y.tobytes()
        assert (scaled.step_size, scaled.primal_weight) == (plain.step_size, plain.primal_weight)

    @pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (1.0, 1.0, 4096.0), (1.0, 2.0**-7, 4096.0)])
    def test_scaled_rows_certified(self, scales):
        # the certificate test reads K d on the original rows, so a larger
        # row needs a ray that is closer: 384, 512 and 512 iterations
        config = pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=2_000))
        report = pl.solve(self.unbounded_lp_with_scaled_rows(*scales), config)
        assert report.status == pl.STATUS_DUAL_INFEASIBLE
        assert report.iterations <= 1_000


class TestWorkingSpaceRowOrder:
    """LPs above ROW_ORDER_MIN_NNZ run with K's rows grouped by length;
    what ``solve`` reports is in the original rows, checked on the original
    data."""

    @staticmethod
    def pagerank(num_nodes=2500):
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=num_nodes))
        saddle = pl.to_saddle(problem)
        assert saddle.K.nnz >= ROW_ORDER_MIN_NNZ
        assert pl.combined_rescale(saddle.K, m1=saddle.m1).row_order is not None
        return problem, saddle

    def test_report_reproduces_its_kkt_on_the_original_data(self):
        problem, saddle = self.pagerank()
        report = pl.solve(problem)
        assert report.status == pl.STATUS_OPTIMAL
        again = pl.kkt_error(saddle, report.x, report.y)
        assert again.reduced_costs.tobytes() == report.reduced_costs.tobytes()
        for name in ("primal_residual", "dual_residual", "duality_gap", "rel_primal", "rel_dual", "rel_gap"):
            assert getattr(again, name) == getattr(report.kkt, name)
        assert max(again.rel_primal, again.rel_dual, again.rel_gap) <= 1e-8
        # y is in the original rows: the inequality rows' duals are >= 0 and
        # the equality row's dual carries the objective's scale
        assert report.y[: saddle.m1].min() >= 0.0
        assert abs(float(report.x.sum()) - 1.0) < 1e-6

    def test_large_infeasible_lp_certified_on_the_original_data(self):
        base, _ = self.pagerank()
        n = base.num_variables
        # a second equality row asks sum(x) = 2 where the first asks 1
        problem = pl.LpProblem(
            c=base.c,
            ineq_matrix=base.ineq_matrix,
            ineq_rhs=base.ineq_rhs,
            eq_matrix=pl.SparseMatrix(np.ones((2, n))),
            eq_rhs=np.array([1.0, 2.0]),
            lower=base.lower,
            upper=base.upper,
            name="pagerank_contradiction",
        )
        saddle = pl.to_saddle(problem)
        assert pl.combined_rescale(saddle.K, m1=saddle.m1).row_order is not None
        report = pl.solve(problem, pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=20_000)))
        assert report.status == pl.STATUS_PRIMAL_INFEASIBLE
        ray = report.certificate["ray"]
        assert pl.check_primal_infeasible(saddle, ray, 1e-10).valid
        # the ray pulls the two contradicting rows apart
        assert ray[-1] > 0.0 > ray[-2]


def _solve_in_child(problem, results):
    report = pl.solve(problem)
    own_worker = sparse._cpus() < 2 or sparse._pool[0] == os.getpid()
    results.put((report.status, report.iterations, own_worker))


class TestTwoThreads:
    """Above ``sparse.SPLIT_MIN_NNZ`` nonzeros the Halpern and the fixed step
    run half of each phase on a worker thread; on one CPU the caller runs
    both halves, with the same bits.  The CI runs these tests under
    ``taskset -c 0`` too, where the affinity itself allows one CPU."""

    @staticmethod
    def solve_recording_workers(problem, monkeypatch, config=None):
        workers = []
        real = sparse._worker

        def recording():
            workers.append(real())
            return workers[-1]

        monkeypatch.setattr(sparse, "_worker", recording)
        report = pl.report_to_dict(pl.solve(problem, config))
        del report["timings"]
        return report, workers

    @staticmethod
    def assert_one_worker(workers):
        """Every two-half call looks the worker up: at least once, and each
        time the same thread on two CPUs, or None on one."""
        assert workers
        if sparse._cpus() >= 2:
            assert all(w is not None and w is workers[0] for w in workers)
        else:
            assert all(w is None for w in workers)

    def test_two_threads_match_one_cpu_above_the_floor(self, monkeypatch):
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=26_000))
        assert pl.to_saddle(problem).K.nnz >= pl.sparse.SPLIT_MIN_NNZ
        threaded, workers = self.solve_recording_workers(problem, monkeypatch)
        assert threaded["status"] == pl.STATUS_OPTIMAL
        self.assert_one_worker(workers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial, workers = self.solve_recording_workers(problem, monkeypatch)
        assert workers and all(w is None for w in workers)
        assert json.dumps(threaded, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_two_threads_fixed_step_matches_one_cpu(self, monkeypatch):
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=26_000))
        assert pl.to_saddle(problem).K.nnz >= pl.sparse.SPLIT_MIN_NNZ
        config = pl.SolverConfig(step=pl.StepPolicy(mode="fixed"))
        threaded, workers = self.solve_recording_workers(problem, monkeypatch, config)
        assert threaded["status"] == pl.STATUS_OPTIMAL
        self.assert_one_worker(workers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial, workers = self.solve_recording_workers(problem, monkeypatch, config)
        assert workers and all(w is None for w in workers)
        assert json.dumps(threaded, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_two_threads_below_the_floor_make_no_worker(self, monkeypatch):
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=2000))
        assert pl.to_saddle(problem).K.nnz < pl.sparse.SPLIT_MIN_NNZ
        monkeypatch.setattr(sparse, "_pool", None)
        inline, workers = self.solve_recording_workers(problem, monkeypatch)
        assert inline["status"] == pl.STATUS_OPTIMAL
        assert workers == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial, workers = self.solve_recording_workers(problem, monkeypatch)
        assert workers == []
        assert sparse._pool is None
        assert json.dumps(inline, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_two_threads_non_finite_operator_leaves_state_intact(self):
        # the reflection 2 x_T - x overflows in both halves of the x side,
        # the worker's too, without a warning (which the test settings turn
        # into an error) and without touching the iterate
        saddle = pl.to_saddle(pl.generate_pagerank(pl.PagerankSpec(num_nodes=26_000)))
        state = pl.IterateState(x=np.full(saddle.num_primal, 1.7e308), y=np.zeros(saddle.num_dual))
        x, y = state.x, state.y
        with pytest.raises(pl.NonFiniteIterate, match="total iteration 1"):
            pl.pdhg_step(state, saddle, pl.StepState(0.5, 1.0), halpern=True)
        assert state.x is x and state.y is y
        assert np.all(state.x == 1.7e308) and np.all(state.y == 0.0)
        assert (state.inner_count, state.total_count, state.trial_count) == (0, 0, 0)

    def test_two_threads_concurrent_solves_share_the_worker(self):
        # three solving threads on two cores queue their halves on the one
        # worker; each must get the report of the solve run alone
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=26_000))

        def report():
            out = pl.report_to_dict(pl.solve(problem))
            del out["timings"]
            return json.dumps(out, sort_keys=True)

        alone = report()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as callers:
                futures = [callers.submit(report) for _ in range(3)]
                together = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == [alone] * 3

    # forking a process that has a thread is what this test is about
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_fork_child_solves_as_the_parent(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=26_000))
        parent = pl.solve(problem)
        assert sparse._cpus() < 2 or sparse._pool[0] == os.getpid()
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_solve_in_child, args=(problem, results))
        child.start()
        try:
            status, iterations, own_worker = results.get(timeout=60)
            child.join(timeout=30)
        except queue.Empty:
            pytest.fail("the forked child did not finish its solve")
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert (status, iterations) == (parent.status, parent.iterations)
        assert own_worker


class TestMemory:
    """A solve holds K's entries twice at most, the caller's G and A and the
    working K~, and no vector that no step reads."""

    @staticmethod
    def recording_states(monkeypatch):
        states = []
        real = pl.solver.pdhg_step

        def step(state, *args, **kwargs):
            states.append(state)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(pl.solver, "pdhg_step", step)
        return states

    @pytest.mark.parametrize("mode", ["halpern", "fixed"])
    def test_only_the_pdhg_steps_allocate_the_running_sum(self, mode, monkeypatch):
        states = self.recording_states(monkeypatch)
        config = pl.SolverConfig(step=pl.StepPolicy(mode=mode), termination=pl.TerminationCriteria(iteration_limit=300))
        report = pl.solve(random_feasible_lp(0), config)
        assert report.restarts > 0 and states
        if mode == "halpern":
            assert all(s.sums is None and s.sum_x is None and s.sum_y is None for s in states)
        else:
            assert all(s.sums is not None and s.sum_x.base is s.sums for s in states)

    @pytest.mark.parametrize(
        "scaling, floor, kept",
        [("logmean+ruiz+pc", 1, False), ("none", 1, True), ("logmean+ruiz+pc", sparse.SPLIT_MIN_NNZ, True)],
        ids=["two_blocks", "no_scaling", "one_block"],
    )
    def test_no_stacked_copy_outlives_the_working_matrix(self, scaling, floor, kept, monkeypatch):
        # once K~ is built from to_saddle's [G; A] on two row blocks, nothing
        # holds [G; A]; without a scaling it is K~ itself, and below the
        # split floor the small copy stays
        monkeypatch.setattr(sparse, "SPLIT_MIN_NNZ", floor)
        refs, alive = [], []
        real_to_saddle, real_kkt = pl.solver.to_saddle, pl.solver.kkt_error

        def to_saddle(problem):
            saddle = real_to_saddle(problem)
            refs.append(weakref.ref(saddle.K))
            return saddle

        def kkt_error(*args):
            alive.append(refs[0]() is not None)
            return real_kkt(*args)

        monkeypatch.setattr(pl.solver, "to_saddle", to_saddle)
        monkeypatch.setattr(pl.solver, "kkt_error", kkt_error)
        config = pl.SolverConfig(scaling=scaling, termination=pl.TerminationCriteria(iteration_limit=320))
        report = pl.solve(random_feasible_lp(1), config)
        assert len(alive) == len(report.residual_history) > 1
        assert alive == [kept] * len(alive)

    @staticmethod
    def free_boxed_fixed_lp():
        """A criterion-8 LP with equality rows whose first five variables
        are free and next five fixed at their lower bounds; the rest keep
        their boxes."""
        base = random_feasible_lp(2, m_eq=4)
        lower, upper = base.lower.copy(), base.upper.copy()
        lower[:5], upper[:5] = -np.inf, np.inf
        upper[5:10] = lower[5:10]
        return pl.LpProblem(
            c=base.c, ineq_matrix=base.ineq_matrix, ineq_rhs=base.ineq_rhs, eq_matrix=base.eq_matrix,
            eq_rhs=base.eq_rhs, lower=lower, upper=upper,
        )

    @pytest.mark.parametrize("step", pl.stepsize.STEP_MODES)
    @pytest.mark.parametrize("scaling", pl.scaling.SCALING_MODES)
    @pytest.mark.parametrize("lp", ["free_boxed_fixed", "two_block_pagerank"])
    def test_a_solve_never_changes_the_callers_lp(self, lp, scaling, step, monkeypatch):
        # the checks, and without a scaling the steps too, read the caller's
        # c, lower and upper themselves, and the checks of a K with two row
        # blocks the caller's G and A; no byte of them may move
        monkeypatch.setattr(sparse, "SPLIT_MIN_NNZ", 1)
        if lp == "free_boxed_fixed":
            problem = self.free_boxed_fixed_lp()
        else:
            problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=300))
        arrays = {name: getattr(problem, name) for name in ("c", "ineq_rhs", "eq_rhs", "lower", "upper")}
        for name in ("ineq_matrix", "eq_matrix"):
            matrix = getattr(problem, name)
            arrays.update({f"{name}.{part}": getattr(matrix, part) for part in ("indptr", "indices", "data")})
        before = {name: array.tobytes() for name, array in arrays.items()}
        config = pl.SolverConfig(
            scaling=scaling, step=pl.StepPolicy(mode=step), termination=pl.TerminationCriteria(iteration_limit=256)
        )
        report = pl.solve(problem, config)
        assert report.iterations > pl.solver.CHECK_INTERVAL
        assert len(pl.to_saddle(problem).K.row_blocks()) == 2
        assert {name: array.tobytes() for name, array in arrays.items()} == before

    def test_candidates_have_the_bits_of_extract_certificates(self):
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=3000))
        original = pl.solver._Original(problem, pl.scaling.DEFAULT_SCALING, math.inf)
        assert original.scaling.row_order is not None
        saddle = original.saddle
        state = pl.IterateState.initial(saddle)
        x0 = pl.unscale_solution(state.x, state.y, original.scaling)
        # the owner's start is the state's, unscaled
        assert original.x0.tobytes() == x0[0].tobytes()
        step = pl.StepState(0.5 / pl.spectral_norm_estimate(saddle.K).value, 1.0)
        pl.pdhg_step(state, saddle, step, halpern=True, count=9)
        point = pl.unscale_solution(*state.t_parts, original.scaling)
        expected = pl.extract_certificates(pl.unscale_solution(*state.prev_parts, original.scaling), point, x0, 9)
        made = list(pl.solver._candidates(original, state, point, 9))
        assert [c.kind for c in made] == [c.kind for c in expected] == ["difference", "normalized"]
        for got, want in zip(made, expected):
            assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()

    def test_traced_peak_below_a_multiple_of_k(self):
        # the n=30,000 PageRank (two row blocks, grouped rows) through its
        # checks at 64 and 128 iterations, the first of which tests rays:
        # 3.4-3.6 times K's CSR bytes (the first solve of a process is the
        # highest), against 3.6-3.8 while to_saddle copied c, l and u, and
        # 5.3 while the stacked copy of K lived beside K~ and the scaling
        # passes copied K's entries
        problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=30_000))
        k = pl.to_saddle(problem).K
        assert len(k.row_blocks()) == 2
        k_bytes = k.indptr.nbytes + k.indices.nbytes + k.data.nbytes
        del k
        config = pl.SolverConfig(termination=pl.TerminationCriteria(iteration_limit=128))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = pl.solve(problem, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert report.iterations == 128
        assert peak < 4.0 * k_bytes
