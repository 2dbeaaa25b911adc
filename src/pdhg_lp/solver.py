"""Solve driver: scaling, the restarted PDHG loop, and termination checks.

The loop works in the scaled space; every termination decision (KKT errors,
infeasibility certificates) is made on unscaled iterates against the
original data.

On small problems an iteration costs more in Python than in arithmetic, so
``solve`` does per solve what need not be done per iteration: it enters the
step kernel's np.errstate(over="ignore", invalid="ignore") once around the
loop (the steps are called with ``errstate=False``), and it computes the
checks' per-problem constants (``termination.check_constants``: the
finite-bound masks, ||q||, ||c|| and the certificate scales) once, for
every KKT and certificate check.  Each candidate ray's norm is computed once
and passed to the certificate checks.  Both constant steps run in
stretches, one ``pdhg_step`` call from one event of the loop (a check, a
log line, a restart test, the iteration limit) to the next; a time limit
ends a stretch at the step where the loop would have stopped.

On a large problem the working space also groups K's rows by length
(``scaling.length_order``), which makes the CSR products faster; y goes
back to the original row order wherever it is unscaled.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NonFiniteIterate, NonPositiveInput, StepSizeUnderflow
from .pdhg import IterateState, fixed_point_residual, pdhg_step
from .problem import to_saddle, validate
from . import restarts, stepsize
from .restarts import RestartConfig, apply_restart, normalized_duality_gap, should_restart
from .scaling import DEFAULT_SCALING, SCALING_MODES, apply_scaling, combined_rescale, unscale_solution
from .sparse import dot, spectral_norm_estimate
from .stepsize import StepPolicy, WeightPolicy, adaptive_step, initialize_step_state, update_primal_weight
from .termination import (
    TerminationCriteria, _count, _norm, check_constants, check_dual_infeasible, check_optimal,
    check_primal_infeasible, extract_certificates, kkt_error,
)

logger = logging.getLogger("pdhg_lp")

STATUS_OPTIMAL = "optimal"
STATUS_PRIMAL_INFEASIBLE = "primal_infeasible"
STATUS_DUAL_INFEASIBLE = "dual_infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_TIME_LIMIT = "time_limit"
STATUS_NUMERICAL_ERROR = "numerical_error"

# iterations between termination checks, PDLP's fixed frequency
CHECK_INTERVAL = 64

# the tolerance of the infeasibility checks that can end a solve
TOL_INFEASIBLE = 1e-10

# consecutive checks that must find a valid ray before an infeasibility
# verdict is returned
CONFIRMATIONS_REQUIRED = 2

# The Lanczos residual test's relative tolerance on ||K~||^2 for the spectral
# estimate (``spectral_norm_estimate``)
NORM_TOLERANCE = 1e-6

# A normalized candidate ray that passes an infeasibility check at this loose
# tolerance freezes the adaptive step: PDHG reveals the ray only for a fixed
# operator (Applegate, Diaz, Lu & Lubin, arXiv 2102.04592), and the adaptive
# rule changes the operator at every iteration.
FREEZE_TOLERANCE = 1e-3

# (status, certificate kind, ray named in the reason) for the two
# infeasibility verdicts, in the order solve tests them
_INFEASIBILITY_VERDICTS = (
    (STATUS_PRIMAL_INFEASIBLE, "primal_infeasibility", "dual"),
    (STATUS_DUAL_INFEASIBLE, "dual_infeasibility", "primal"),
)


@dataclass(frozen=True)
class SolverConfig:
    termination: TerminationCriteria = field(default_factory=TerminationCriteria)
    scaling: str = DEFAULT_SCALING  # one of SCALING_MODES
    restart: RestartConfig = field(default_factory=RestartConfig)
    step: StepPolicy = field(default_factory=StepPolicy)
    weight: WeightPolicy = field(default_factory=WeightPolicy)
    log_interval: int = 0

    def __post_init__(self):
        if self.scaling not in SCALING_MODES:
            raise NonPositiveInput(f"unknown scaling mode {self.scaling!r}")
        object.__setattr__(self, "log_interval", _count("log_interval", self.log_interval))


@dataclass
class SolveReport:
    """Everything a caller gets back from ``solve``.

    ``objective_value``/``dual_objective_value`` are stated for the original
    problem (sign and constant offset applied).  ``kkt`` carries the final
    relative/absolute residuals; ``certificate`` is populated only for the
    two infeasible statuses.  ``restarts_by_reason`` splits ``restarts`` by
    the rule that fired (gap_decay, residual_decay or artificial);
    ``step_trials`` counts the trial points computed, so the adaptive rule
    rejected ``step_trials - iterations`` of them (a fixed or Halpern step
    is one trial, always accepted).
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
    problem_name: str
    dims: tuple


def _log_progress(iteration, kkt, step):
    logger.info(
        "iter %8d  rel_primal %.3e  rel_dual %.3e  rel_gap %.3e  s %.3e  w %.3e",
        iteration, kkt.rel_primal, kkt.rel_dual, kkt.rel_gap,
        step.step_size, step.primal_weight,
    )


def _estimate_norm(matrix, deadline, notes):
    """||matrix|| by ``spectral_norm_estimate``, stopped at ``deadline``; a
    budget that runs out leaves a line in ``notes``.  Returns (estimate,
    seconds)."""
    t_mark = time.perf_counter()
    estimate = spectral_norm_estimate(matrix, tol=NORM_TOLERANCE, max_iters=5000, deadline=deadline)
    seconds = time.perf_counter() - t_mark
    if not estimate.converged:
        budget = "time limit" if time.perf_counter() >= deadline else "iteration budget"
        notes.append(f"spectral norm estimate hit its {budget}; using best value")
    return estimate.value, seconds


def _shows_ray(verdict):
    """The verdict passes its check at FREEZE_TOLERANCE: residual at most the
    tolerance and gain / scale (margin + residual) at least it."""
    return verdict.residual <= FREEZE_TOLERANCE and verdict.margin + verdict.residual >= FREEZE_TOLERANCE


def _ray_hits(saddle0, candidates, tol, constants, unfrozen):
    """Test each candidate's y as a dual ray and its x as a primal ray, with
    the norm of each computed once.  Returns the valid (verdict, candidate,
    ray, norm) of each kind, and whether a normalized candidate shows a ray.

    A check's product is skipped when a part that needs none rules the ray
    out: a dual ray's cone violation above ``tol``, or a primal ray's gain
    below ``tol`` times the dual scale.  While the adaptive step is
    ``unfrozen`` a normalized candidate must also be unable to show a ray:
    its dual ray is skipped only with a violation above FREEZE_TOLERANCE as
    well, and its primal ray is always checked.  The parts are computed as
    the checks compute them, on the normalized ray, so every verdict is the
    one the full check gives."""
    hits = ([], [])
    shows = False
    m1 = saddle0.m1
    gain_floor = tol * constants.dual_scale
    for cand in candidates:
        may_show = unfrozen and cand.kind == "normalized"
        for check, ray, kind_hits in zip((check_primal_infeasible, check_dual_infeasible), (cand.y, cand.x), hits):
            norm = _norm(ray)
            if not 0.0 < norm < math.inf:
                continue
            if check is check_primal_infeasible:
                violation = float(max(0.0, -(ray[:m1] / norm).min())) if m1 else 0.0
                ruled_out = violation > tol and not (may_show and violation <= FREEZE_TOLERANCE)
            else:
                ruled_out = not may_show and -dot(saddle0.c, ray / norm) < gain_floor
            if ruled_out:
                continue
            verdict = check(saddle0, ray, tol, constants, norm=norm)
            if verdict.valid:
                kind_hits.append((verdict, cand, ray, norm))
            shows = shows or (may_show and _shows_ray(verdict))
    return hits, shows


def solve(problem, config=None):
    """Run restarted PDHG, by default as reflected Halpern iteration, on an
    LpProblem and return a SolveReport.  The report's ``residual_history``
    has a row for every termination check.
    """
    t_start = time.perf_counter()
    config = config or SolverConfig()
    crit = config.termination
    deadline = t_start + crit.time_limit_sec
    validate(problem)
    saddle0 = to_saddle(problem)

    t_mark = time.perf_counter()
    # the identity when time runs out: the first check stops the loop
    scaling = combined_rescale(saddle0.K, mode=config.scaling, m1=saddle0.m1, deadline=deadline)
    saddle = apply_scaling(saddle0, scaling)
    scaling_sec = time.perf_counter() - t_mark

    notes = []
    # ||K~|| feeds the constant steps, and a frozen adaptive step
    norm_k = None
    power_sec = 0.0
    if config.step.mode != "adaptive" and config.step.fixed_step is None:
        norm_k, power_sec = _estimate_norm(saddle.K, deadline, notes)
    halpern = config.step.mode == "halpern"
    # the adaptive rule runs until a ray shows, then the step is frozen
    adaptive = config.step.mode == "adaptive"
    adaptive_restarts = config.restart.scheme == "adaptive"
    gap_restarts = adaptive_restarts and not halpern

    step = initialize_step_state(saddle, norm_k, config.step, config.weight)
    state = IterateState.initial(saddle)
    # The step buffers' t holds the restart candidate of either kind, and
    # under Halpern the T(z) of the last step, which a check tests (z0, which
    # t starts as, at iteration 0); PDHG's checks test z.  The point before
    # is the iterate the last step replaced, in prev.
    buf = state.buffers
    t_parts = (buf.x, buf.y)

    # for the gap rule, the normalized gap at the epoch start that the
    # sufficient-decay test compares against; the epoch's start is the
    # anchor in the step buffers
    reference_gap = None
    gap_evals = 0
    if gap_restarts:
        with np.errstate(over="ignore"):
            radius = _norm(state.x, state.y) + 1.0
        reference_gap = normalized_duality_gap(saddle, state.x, state.y, radius)
        gap_evals += 1
    # the Halpern epoch's first fixed-point residual, and the last one tested
    first_residual = last_residual = None

    x0_u, y0_u = unscale_solution(state.x, state.y, scaling)
    constants = check_constants(saddle0)
    streaks = [0, 0]  # consecutive checks with a valid primal / dual infeasibility ray
    history = []
    restarts_by_reason = {"gap_decay": 0, "residual_decay": 0, "artificial": 0}
    status = None
    reason = ""
    certificate = None

    iteration = 0
    # the step kernel's error state, entered once for the whole loop
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            hit_iters = iteration >= crit.iteration_limit
            hit_time = time.perf_counter() >= deadline
            check_due = iteration % CHECK_INTERVAL == 0 or hit_iters or hit_time
            log_due = config.log_interval and iteration % config.log_interval == 0
            if check_due or log_due:
                xu, yu = unscale_solution(*(t_parts if halpern else (state.x, state.y)), scaling)
                kkt = kkt_error(saddle0, xu, yu, constants)
                if log_due:
                    _log_progress(iteration, kkt, step)
            # iteration 0 is a check, so last_kkt is set before any break
            if check_due:
                ray_shows = False
                last_kkt, last_point = kkt, (xu, yu)
                history.append(
                    (iteration, kkt.rel_primal, kkt.rel_dual, kkt.rel_gap, step.step_size, step.primal_weight)
                )
                if check_optimal(kkt, crit):
                    status = STATUS_OPTIMAL
                    reason = f"relative KKT errors at or below {crit.tol_optimal}"
                    break
                if iteration > 0:
                    # No local keeps the point before or the candidates, so
                    # they are not held into the restart block's gap evaluations.
                    hits, ray_shows = _ray_hits(
                        saddle0,
                        extract_certificates(
                            unscale_solution(*buf.prev_parts, scaling), (xu, yu), (x0_u, y0_u), iteration
                        ),
                        TOL_INFEASIBLE,
                        constants,
                        adaptive,
                    )
                    streaks = [streak + 1 if h else 0 for streak, h in zip(streaks, hits)]
                    confirmed = [k for k in (0, 1) if streaks[k] >= CONFIRMATIONS_REQUIRED]
                    if confirmed:
                        k = confirmed[0]  # primal first when both confirm at once
                        verdict, cand, ray, norm = max(hits[k], key=lambda h: h[0].margin)
                        status, kind, ray_name = _INFEASIBILITY_VERDICTS[k]
                        certificate = {
                            "kind": kind,
                            "ray": ray / norm,
                            "source": cand.kind,
                            "residual": verdict.residual,
                            "gain": verdict.gain,
                            "margin": verdict.margin,
                        }
                        reason = f"{ray_name} ray certificate confirmed {streaks[k]} checks in a row"
                        break
                if hit_iters:
                    status = STATUS_ITERATION_LIMIT
                    reason = f"iteration limit {crit.iteration_limit} reached"
                    break
                if hit_time:
                    status = STATUS_TIME_LIMIT
                    reason = f"time limit {crit.time_limit_sec} s reached"
                    break
                if adaptive and ray_shows:
                    # freeze at most the fixed step's 0.9 / ||K~||, below which it converges
                    norm_k, seconds = _estimate_norm(saddle.K, deadline, notes)
                    power_sec += seconds
                    if norm_k > 0:
                        step = replace(step, step_size=min(step.step_size, stepsize.FIXED_STEP_FRACTION / norm_k))
                    adaptive = False
                    notes.append(
                        f"adaptive step frozen at iteration {iteration}, s = {step.step_size:.6g}:"
                        " an infeasibility ray shows"
                    )

            try:
                if adaptive:
                    state, step, accepted = adaptive_step(state, saddle, step, errstate=False)
                    if not accepted:
                        status = STATUS_NUMERICAL_ERROR
                        reason = f"adaptive step rejected {stepsize.MAX_RETRIES} trials in a row"
                        break
                else:
                    # a constant step runs up to the next event: a check, a
                    # log line, the iteration limit or a restart test
                    stretch = min(CHECK_INTERVAL - iteration % CHECK_INTERVAL, crit.iteration_limit - iteration)
                    if config.log_interval:
                        stretch = min(stretch, config.log_interval - iteration % config.log_interval)
                    if adaptive_restarts:
                        stretch = min(stretch, restarts.steps_to_next_test(state, halpern))
                    pdhg_step(state, saddle, step, halpern=halpern, errstate=False, count=stretch, deadline=deadline)
            except (NonFiniteIterate, StepSizeUnderflow) as err:
                status = STATUS_NUMERICAL_ERROR
                reason = str(err)
                iteration = state.total_count
                break
            iteration = state.total_count

            # Restart.  The adaptive scheme decides under the Halpern step from
            # the fixed-point residual every RESIDUAL_EVAL_INTERVAL iterations
            # and from the artificial cap after every stretch (each ends by the
            # step at which the cap can first be reached), and goes to T(z);
            # under PDHG it decides every GAP_EVAL_INTERVAL iterations and at
            # check points, from the epoch average's normalized gap, and goes
            # to the average.  Both candidates are in t.
            if not adaptive_restarts:
                continue
            inner = state.inner_count
            candidate_gap = residuals = None
            if halpern:
                test_residual = inner % restarts.RESIDUAL_EVAL_INTERVAL == 0
                if test_residual or inner == 1:
                    residual = fixed_point_residual(state, step)
                    if inner == 1:
                        first_residual = last_residual = residual
                    if test_residual:
                        residuals = (residual, first_residual, last_residual)
                    last_residual = residual
                if not (test_residual or restarts.artificial_cap_reached(state)):
                    continue
            else:
                if not (inner % restarts.GAP_EVAL_INTERVAL == 0 or iteration % CHECK_INTERVAL == 0):
                    continue
                # the average into t, and its gap at its distance from the
                # epoch start, when finite and nonzero; the average minus the
                # anchor stays in r for the weight update
                np.divide(buf.sums, state.sum_weight, out=buf.t)
                np.subtract(buf.t, buf.anchor, out=buf.r)
                radius = _norm(buf.dx, buf.dy)
                if 0.0 < radius < math.inf:
                    # Short of the artificial cap only a gap at or below the
                    # decay bound restarts, so the bisection may stop above it.
                    stop_above = math.inf
                    if not restarts.artificial_cap_reached(state):
                        stop_above = restarts.GAP_SUFFICIENT_DECAY * reference_gap
                    candidate_gap = normalized_duality_gap(saddle, *t_parts, radius, stop_above=stop_above)
                    gap_evals += 1
            fire, why = should_restart(
                state, candidate_gap=candidate_gap, reference_gap=reference_gap, residuals=residuals
            )
            if not fire:
                continue
            restarts_by_reason[why] += 1
            # the weight follows the candidate's move from the anchor, in r
            if halpern:
                np.subtract(buf.t, buf.anchor, out=buf.r)
            elif candidate_gap is not None:
                # the new start's gap at the distance it moved is the candidate's
                reference_gap = candidate_gap
            step = replace(
                step,
                primal_weight=update_primal_weight(step.primal_weight, _norm(buf.dx), _norm(buf.dy), config.weight),
            )
            apply_restart(state, t_parts)

    # Final report.  For a numerical-error stop the state still holds the
    # last good iterate, which may be newer than the last check point.
    if status == STATUS_NUMERICAL_ERROR:
        xu, yu = unscale_solution(state.x, state.y, scaling)
        last_kkt, last_point = kkt_error(saddle0, xu, yu, constants), (xu, yu)
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
