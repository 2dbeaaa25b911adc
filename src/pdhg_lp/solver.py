"""Solve driver: scaling, the restarted PDHG loop, and termination checks.

The loop works in the scaled space; every termination decision (KKT errors,
infeasibility certificates) is made on unscaled iterates against the
original data.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NonFiniteIterate, NonPositiveInput, StepSizeUnderflow
from .pdhg import IterateState, pdhg_step
from .problem import to_saddle, validate
from .restarts import (
    EpochSnapshot,
    RestartConfig,
    apply_restart,
    fixed_period_from_sharpness,
    normalized_duality_gap,
    should_restart,
)
from .scaling import apply_scaling, combined_rescale, unscale_solution
from .sparse import spectral_norm_estimate
from .stepsize import StepPolicy, WeightPolicy, adaptive_step, initialize_step_state, update_primal_weight
from .termination import (
    TerminationCriteria,
    check_dual_infeasible,
    check_optimal,
    check_primal_infeasible,
    extract_certificates,
    kkt_error,
)

logger = logging.getLogger("pdhg_lp")

STATUS_OPTIMAL = "optimal"
STATUS_PRIMAL_INFEASIBLE = "primal_infeasible"
STATUS_DUAL_INFEASIBLE = "dual_infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_NUMERICAL_ERROR = "numerical_error"


@dataclass(frozen=True)
class SolverConfig:
    termination: TerminationCriteria = field(default_factory=TerminationCriteria)
    scaling: str = "ruiz+pc"  # none | ruiz | pc | ruiz+pc
    ruiz_iterations: int = 10
    pc_alpha: float = 1.0
    restart: RestartConfig = field(default_factory=RestartConfig)
    step: StepPolicy = field(default_factory=StepPolicy)
    weight: WeightPolicy = field(default_factory=WeightPolicy)
    check_interval: int = 64
    detect_infeasibility: bool = True
    confirmations_required: int = 2
    log_interval: int = 0
    record_history: bool = True


@dataclass
class SolveReport:
    """Everything a caller gets back from ``solve``.

    ``objective_value``/``dual_objective_value`` are stated for the original
    problem (sign and constant offset applied).  ``kkt`` carries the final
    relative/absolute residuals; ``certificate`` is populated only for the
    two infeasible statuses.  ``restarts_by_reason`` splits ``restarts`` by
    the rule that fired (gap_decay, artificial, fixed_period);
    ``step_trials`` counts the trial points computed, so the adaptive rule
    rejected ``step_trials - iterations`` of them (a fixed step is one
    trial, always accepted).
    """

    status: str
    reason: str
    x: np.ndarray
    y: np.ndarray
    reduced_costs: np.ndarray
    objective_value: float
    dual_objective_value: float
    kkt: object
    iterations: int
    restarts: int
    restarts_by_reason: dict
    matvecs: int
    gap_evaluations: int
    step_trials: int
    step_size: float
    primal_weight: float
    certificate: dict
    residual_history: list
    timings: dict
    notes: list
    config: SolverConfig
    problem_name: str = ""
    dims: tuple = ()

    @property
    def solved(self):
        return self.status == STATUS_OPTIMAL


def _point_distance(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(float(dx @ dx) + float(dy @ dy))


def _log_progress(iteration, kkt, step):
    logger.info(
        "iter %8d  rel_primal %.3e  rel_dual %.3e  rel_gap %.3e  s %.3e  w %.3e",
        iteration, kkt.rel_primal, kkt.rel_dual, kkt.rel_gap,
        step.step_size, step.primal_weight,
    )


def solve(problem, config=None, callback=None):
    """Run restarted PDHG on an LpProblem and return a SolveReport.

    ``callback``, if given, is invoked at every termination check as
    ``callback(iteration, kkt_report, step_state)``.
    """
    t_start = time.perf_counter()
    config = config or SolverConfig()
    crit = config.termination
    validate(problem)
    saddle0 = to_saddle(problem)

    t_mark = time.perf_counter()
    scaling = combined_rescale(
        saddle0.K, mode=config.scaling, ruiz_iters=config.ruiz_iterations, pc_alpha=config.pc_alpha
    )
    saddle = apply_scaling(saddle0, scaling)
    scaling_sec = time.perf_counter() - t_mark

    notes = []
    rcfg = config.restart
    period_from_sharpness = rcfg.scheme == "fixed" and rcfg.period is None
    if period_from_sharpness and rcfg.sharpness is None:
        raise NonPositiveInput("fixed restart scheme needs a period or a sharpness constant")
    # ||K~|| feeds only the default fixed step and a sharpness-derived period
    norm_k = None
    power_sec = 0.0
    if period_from_sharpness or (config.step.mode == "fixed" and config.step.fixed_step is None):
        t_mark = time.perf_counter()
        estimate = spectral_norm_estimate(saddle.K, tol=1e-4, max_iters=5000, seed=0)
        power_sec = time.perf_counter() - t_mark
        norm_k = estimate.value
        if not estimate.converged:
            notes.append("spectral norm estimate hit its iteration budget; using best value")
    if period_from_sharpness:
        rcfg = replace(rcfg, period=fixed_period_from_sharpness(max(norm_k, 1e-12), rcfg.sharpness))
    adaptive_restarts = rcfg.scheme == "adaptive"

    step = initialize_step_state(saddle, norm_k, config.step, config.weight)
    state = IterateState.initial(saddle)

    snapshot = EpochSnapshot(x_start=state.x.copy(), y_start=state.y.copy())
    gap_evals = 0
    if adaptive_restarts:
        r0 = math.sqrt(float(state.x @ state.x) + float(state.y @ state.y)) + 1.0
        snapshot.gap_at_start = normalized_duality_gap(saddle, state.x, state.y, r0)
        snapshot.radius_at_start = r0
        gap_evals += 1

    x0_u, y0_u = unscale_solution(state.x, state.y, scaling)
    stash = None  # scaled copy of the iterate one step before a check point
    streak_primal = streak_dual = 0
    best_primal = best_dual = None  # (verdict, candidate) with the largest margin
    history = []
    restarts_by_reason = {"gap_decay": 0, "artificial": 0, "fixed_period": 0}
    status = None
    reason = ""
    certificate = None
    last_kkt = None
    last_point = None

    def unscale_state():
        return unscale_solution(state.x, state.y, scaling)

    iteration = 0
    while True:
        hit_iters = iteration >= crit.iteration_limit
        hit_time = (time.perf_counter() - t_start) >= crit.time_limit_sec
        log_due = config.log_interval and iteration % config.log_interval == 0
        if iteration % config.check_interval == 0 or hit_iters or hit_time:
            xu, yu = unscale_state()
            kkt = kkt_error(saddle0, xu, yu)
            last_kkt, last_point = kkt, (xu, yu)
            if config.record_history:
                history.append((iteration, kkt.rel_primal, kkt.rel_dual, kkt.rel_gap))
            if callback is not None:
                callback(iteration, kkt, step)
            if log_due:
                _log_progress(iteration, kkt, step)
            if check_optimal(kkt, crit):
                status = STATUS_OPTIMAL
                reason = f"relative KKT errors at or below {crit.tol_optimal}"
                break
            if config.detect_infeasibility and iteration > 0 and stash is not None:
                prev_u = unscale_solution(stash[0], stash[1], scaling)
                candidates = extract_certificates(prev_u, (xu, yu), (x0_u, y0_u), iteration)
                primal_hits = []
                dual_hits = []
                for cand in candidates:
                    if float(np.linalg.norm(cand.y)) > 0.0:
                        verdict = check_primal_infeasible(saddle0, cand.y, crit.tol_infeasible)
                        if verdict.valid:
                            primal_hits.append((verdict, cand))
                    if float(np.linalg.norm(cand.x)) > 0.0:
                        verdict = check_dual_infeasible(saddle0, cand.x, crit.tol_infeasible)
                        if verdict.valid:
                            dual_hits.append((verdict, cand))
                if primal_hits:
                    streak_primal += 1
                    best_primal = max(primal_hits, key=lambda vc: vc[0].margin)
                else:
                    streak_primal, best_primal = 0, None
                if dual_hits:
                    streak_dual += 1
                    best_dual = max(dual_hits, key=lambda vc: vc[0].margin)
                else:
                    streak_dual, best_dual = 0, None
                if streak_primal >= config.confirmations_required:
                    verdict, cand = best_primal
                    ray = cand.y / np.linalg.norm(cand.y)
                    certificate = {
                        "kind": "primal_infeasibility",
                        "ray": ray,
                        "source": cand.kind,
                        "residual": verdict.residual,
                        "gain": verdict.gain,
                        "margin": verdict.margin,
                    }
                    status = STATUS_PRIMAL_INFEASIBLE
                    reason = f"dual ray certificate confirmed {streak_primal} checks in a row"
                    break
                if streak_dual >= config.confirmations_required:
                    verdict, cand = best_dual
                    ray = cand.x / np.linalg.norm(cand.x)
                    certificate = {
                        "kind": "dual_infeasibility",
                        "ray": ray,
                        "source": cand.kind,
                        "residual": verdict.residual,
                        "gain": verdict.gain,
                        "margin": verdict.margin,
                    }
                    status = STATUS_DUAL_INFEASIBLE
                    reason = f"primal ray certificate confirmed {streak_dual} checks in a row"
                    break
            if hit_iters:
                status = STATUS_ITERATION_LIMIT
                reason = f"iteration limit {crit.iteration_limit} reached"
                break
            if hit_time:
                status = STATUS_TIME_LIMIT
                reason = f"time limit {crit.time_limit_sec} s reached"
                break
        elif log_due:
            # between check points the residuals are computed for the log line alone
            _log_progress(iteration, kkt_error(saddle0, *unscale_state()), step)

        next_iteration = iteration + 1
        if config.detect_infeasibility and (
            next_iteration % config.check_interval == 0 or next_iteration >= crit.iteration_limit
        ):
            stash = (state.x.copy(), state.y.copy())

        try:
            if config.step.mode == "adaptive":
                state, step, accepted = adaptive_step(state, saddle, step, config.step)
                if not accepted:
                    status = STATUS_NUMERICAL_ERROR
                    reason = f"adaptive step rejected {config.step.max_retries} trials in a row"
                    break
            else:
                pdhg_step(state, saddle, step, avg_weight=1.0)
        except (NonFiniteIterate, StepSizeUnderflow) as err:
            status = STATUS_NUMERICAL_ERROR
            reason = str(err)
            break
        iteration += 1

        if rcfg.scheme == "fixed":
            ok, why = should_restart(state, snapshot, rcfg)
            if ok:
                candidate = state.average()
                step, extra = _do_restart(state, step, candidate, snapshot, saddle, config, rcfg)
                restarts_by_reason[why] += 1
                gap_evals += extra
        elif adaptive_restarts and state.inner_count > 0:
            due = (
                state.inner_count % rcfg.gap_eval_interval == 0
                or iteration % config.check_interval == 0
            )
            if due:
                candidate, cand_gap, extra = _pick_candidate(state, snapshot, saddle, rcfg)
                gap_evals += extra
                ok, why = should_restart(state, snapshot, rcfg, candidate_gap=cand_gap)
                if ok:
                    step, extra = _do_restart(state, step, candidate, snapshot, saddle, config, rcfg)
                    restarts_by_reason[why] += 1
                    gap_evals += extra

    # Final report.  For a numerical-error stop the state still holds the
    # last good iterate, which may be newer than the last check point.
    if status == STATUS_NUMERICAL_ERROR or last_kkt is None:
        xu, yu = unscale_state()
        last_kkt, last_point = kkt_error(saddle0, xu, yu), (xu, yu)
    xu, yu = last_point
    sign = saddle0.objective_sign
    offset = saddle0.objective_offset
    matvecs = saddle0.K.matvec_calls + saddle0.K.rmatvec_calls
    if saddle.K is not saddle0.K:
        matvecs += saddle.K.matvec_calls + saddle.K.rmatvec_calls
    return SolveReport(
        status=status,
        reason=reason,
        x=xu,
        y=yu,
        reduced_costs=last_kkt.reduced_costs,
        objective_value=sign * (last_kkt.primal_objective + offset),
        dual_objective_value=sign * (last_kkt.dual_objective + offset),
        kkt=last_kkt,
        iterations=iteration,
        restarts=sum(restarts_by_reason.values()),
        restarts_by_reason=restarts_by_reason,
        matvecs=matvecs,
        gap_evaluations=gap_evals,
        step_trials=state.trial_count,
        step_size=step.step_size,
        primal_weight=step.primal_weight,
        certificate=certificate,
        residual_history=history,
        timings={
            "total_sec": time.perf_counter() - t_start,
            "scaling_sec": scaling_sec,
            "power_iteration_sec": power_sec,
        },
        notes=notes,
        config=config,
        problem_name=problem.name,
        dims=(problem.num_variables, problem.num_inequalities, problem.num_equalities),
    )


def _pick_candidate(state, snapshot, saddle, rcfg):
    """Restart candidate plus its normalized gap at the distance from the
    epoch start (None when that distance is zero).  Returns the number of
    gap evaluations spent as the third element."""
    start = (snapshot.x_start, snapshot.y_start)
    avg = state.average()
    r_avg = _point_distance(avg, start)
    evals = 0
    gap_avg = None
    if r_avg > 0.0 and math.isfinite(r_avg):
        gap_avg = normalized_duality_gap(saddle, avg[0], avg[1], r_avg)
        evals += 1
    if rcfg.candidate_rule == "average":
        return avg, gap_avg, evals
    if rcfg.candidate_rule == "best":
        cur = (state.x.copy(), state.y.copy())
        r_cur = _point_distance(cur, start)
        gap_cur = None
        if r_cur > 0.0 and math.isfinite(r_cur):
            gap_cur = normalized_duality_gap(saddle, cur[0], cur[1], r_cur)
            evals += 1
        if gap_avg is None:
            return cur, gap_cur, evals
        if gap_cur is None or gap_avg <= gap_cur:
            return avg, gap_avg, evals
        return cur, gap_cur, evals
    raise NonPositiveInput(f"unknown candidate rule {rcfg.candidate_rule!r}")


def _do_restart(state, step, candidate, snapshot, saddle, config, rcfg):
    """Restart to ``candidate``: update the primal weight from the epoch
    movement, reset the state, and re-anchor the snapshot (reference gap
    measured at the new start with radius = distance between starts).
    Returns the possibly reweighted step state and the gap evaluations
    spent."""
    old_start = (snapshot.x_start, snapshot.y_start)
    evals = 0
    if config.weight.mode == "adaptive":
        dx_norm = float(np.linalg.norm(candidate[0] - old_start[0]))
        dy_norm = float(np.linalg.norm(candidate[1] - old_start[1]))
        step = replace(
            step, primal_weight=update_primal_weight(step.primal_weight, dx_norm, dy_norm, config.weight)
        )
    apply_restart(state, candidate)
    radius = _point_distance(candidate, old_start)
    snapshot.x_start = state.x.copy()
    snapshot.y_start = state.y.copy()
    if rcfg.scheme == "adaptive" and radius > 0.0 and math.isfinite(radius):
        snapshot.gap_at_start = normalized_duality_gap(saddle, state.x, state.y, radius)
        snapshot.radius_at_start = radius
        evals += 1
    return step, evals


def solve_vanilla(problem, step_size, max_iters, tol=1e-8):
    """Plain PDHG baseline: fixed step, unit primal weight, no scaling, no
    restarts.  Used for comparisons and sanity tests."""
    config = SolverConfig(
        termination=TerminationCriteria(tol_optimal=tol, iteration_limit=max_iters),
        scaling="none",
        restart=RestartConfig(scheme="none"),
        step=StepPolicy(mode="fixed", fixed_step=step_size),
        weight=WeightPolicy(mode="fixed", fixed_weight=1.0),
    )
    return solve(problem, config)
