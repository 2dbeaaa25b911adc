"""Solve driver: scaling, the restarted PDHG loop, and termination checks.

Each pass of ``solve``'s loop is a check, then one adaptive step or a
stretch of constant steps, then the restart test.  The check works on
unscaled iterates against the original data: KKT errors, the history row,
infeasibility rays (``_ray_hits``, confirmed by ``_confirmed``) and the
limits; any stop is one (status, reason, certificate).  A stretch is one
``pdhg_step`` call up to the loop's next event: a check, a log line, the
iteration limit or a point of the restart schedule (``restarts.schedule``);
a time limit ends it at the step where the loop would have stopped.  The
restart test (``_RestartTest``) is one decay test of one measure per step
kind, the fixed-point residual under Halpern and the weighted KKT error of
the epoch's average under PDHG, and keeps the epoch's reference.

On small problems an iteration costs more in Python than in arithmetic, so
``solve`` enters the step kernel's np.errstate(over="ignore",
invalid="ignore") once around the loop (the steps are called with
``errstate=False``), and computes the checks' per-problem constants
(``termination.check_constants``) once, for every KKT and certificate
check.  Each candidate ray's norm is computed once.

On a large problem the working space also groups K's rows by length
(``scaling.length_order``), which makes the CSR products faster; y goes
back to the original row order wherever it is unscaled.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import NonFiniteIterate, NonPositiveInput, StepSizeUnderflow, _count
from .pdhg import IterateState, fixed_point_residual, pdhg_step
from .problem import to_saddle, validate
from . import restarts, stepsize
# solve does not call normalized_duality_gap: it is bound here only because
# perfbench's tracer wraps it by its name in this module
from .restarts import RestartConfig, apply_restart, normalized_duality_gap, should_restart  # noqa: F401
from .scaling import DEFAULT_SCALING, SCALING_MODES, apply_scaling, combined_rescale, unscale_solution
from .sparse import dot, spectral_norm_estimate
from .stepsize import StepPolicy, WeightPolicy, adaptive_step, initialize_step_state, update_primal_weight
from .termination import (
    TerminationCriteria, _cone_violation, _norm, check_constants, check_dual_infeasible, check_optimal,
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
# estimate (``spectral_norm_estimate``), sized to the constant step's margin.
# The stop |beta s| <= tol theta puts an eigenvalue of K~'K~ within tol theta
# of the Ritz value theta, which never exceeds ||K~||^2; so when that
# eigenvalue is the top one, the estimate sqrt(theta) is low by a relative
# error of at most about tol / 2.  Halpern's 0.998 / estimate then stays
# below 1 / ||K~|| while tol / 2 < 2e-3 (1 / 0.998 = 1 + 2.004e-3), and 4e-3
# is the edge; 2e-3 leaves half the margin.  That the Ritz value has found
# the top eigenvalue, and not a lower one, the seeded normal start makes
# likely but does not prove.
NORM_TOLERANCE = 2e-3

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
    the rule that fired (residual_decay, the restart test's measure, or
    artificial); ``gap_evaluations`` counts the restart test's KKT errors
    under PDHG; ``step_trials`` counts the trial points computed, so the
    adaptive rule rejected ``step_trials - iterations`` of them (a fixed or
    Halpern step is one trial, always accepted).
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
    the checks compute them (``_cone_violation``), on the normalized ray, so
    every verdict is the one the full check gives."""
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
                violation = _cone_violation(ray[:m1] / norm)
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


def _confirmed(hits, streaks):
    """Count in ``streaks`` the checks in a row with a valid ray of each
    kind in ``hits``; the stop of the first kind (primal first) at
    CONFIRMATIONS_REQUIRED, certified by its ray of largest margin, or None."""
    for k, kind_hits in enumerate(hits):
        streaks[k] = streaks[k] + 1 if kind_hits else 0
    for (status, kind, ray_name), streak, kind_hits in zip(_INFEASIBILITY_VERDICTS, streaks, hits):
        if streak >= CONFIRMATIONS_REQUIRED:
            verdict, cand, ray, norm = max(kind_hits, key=lambda h: h[0].margin)
            certificate = {
                "kind": kind,
                "ray": ray / norm,
                "source": cand.kind,
                "residual": verdict.residual,
                "gain": verdict.gain,
                "margin": verdict.margin,
            }
            return status, f"{ray_name} ray certificate confirmed {streak} checks in a row", certificate
    return None


class _RestartTest:
    """The adaptive scheme's restart test after a step or stretch, at the
    points of ``restarts.schedule``: under Halpern of the last step's
    fixed-point residual, at all but the epoch's first point, and of the
    artificial cap after every stretch; under PDHG of the epoch average's
    weighted KKT error at a point or check point.  It keeps the epoch's
    reference (its first residual, or its start's KKT error), the previous
    test's value and the count of KKT evaluations."""

    def __init__(self, saddle, state, step, halpern):
        self.saddle, self.halpern, self.gap_evaluations = saddle, halpern, 0
        self.reference, self.previous = None, math.inf
        if not halpern:
            self.constants = check_constants(saddle)
            self.reference = self._kkt_measure(state.x, state.y, step.primal_weight)

    def _kkt_measure(self, x, y, weight):
        """sqrt(w P^2 + D^2 / w + G^2) of (x, y) on the working saddle, for
        its primal residual P, dual residual D and duality gap G."""
        self.gap_evaluations += 1
        kkt = kkt_error(self.saddle, x, y, self.constants)
        p, d, g = kkt.primal_residual, kkt.dual_residual, kkt.duality_gap
        return math.sqrt(weight * (p * p) + d * d / weight + g * g)

    def __call__(self, state, step, due, at_check):
        """(fire, why); ``due``: at a point, ``at_check``: at a check."""
        now = residuals = None
        if self.halpern:
            if due:
                now = fixed_point_residual(state, step)
                if self.reference is None:
                    self.reference = now
                else:
                    residuals = (now, self.reference, self.previous)
                self.previous = now
            if residuals is None and not restarts.artificial_cap_reached(state):
                return False, None
        elif due or at_check:
            # the epoch's average into t, the candidate
            np.divide(state.sums, state.sum_weight, out=state.t)
            now = self._kkt_measure(*state.t_parts, step.primal_weight)
            residuals = (now, self.reference, self.previous)
            self.previous = now
        else:
            return False, None
        decay = restarts.RESIDUAL_SUFFICIENT_DECAY if self.halpern else restarts.KKT_SUFFICIENT_DECAY
        fire, why = should_restart(state, residuals=residuals, sufficient=decay)
        if fire:
            # the new epoch's reference: under Halpern its first residual,
            # yet to come, under PDHG the candidate's, the new start's
            self.reference = None if self.halpern else now
            self.previous = math.inf
        return fire, why


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

    step = initialize_step_state(saddle, norm_k, config.step, config.weight)
    state = IterateState.initial(saddle)
    # Under Halpern a check tests the T(z) of the last step, in the state's
    # t (z0, which t starts as, at iteration 0); PDHG's checks test z.  The
    # point before is the iterate the last step replaced, in prev.
    t_parts = state.t_parts
    restart_test = _RestartTest(saddle, state, step, halpern) if config.restart.scheme == "adaptive" else None

    x0_u, y0_u = unscale_solution(state.x, state.y, scaling)
    constants = check_constants(saddle0)
    streaks = [0, 0]  # consecutive checks with a valid primal / dual infeasibility ray
    history = []
    restarts_by_reason = {"residual_decay": 0, "artificial": 0}
    # the iterations of the loop's next check and log line
    next_check, next_log = 0, 0 if config.log_interval else math.inf

    iteration = 0
    # the step kernel's error state, entered once for the whole loop
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            hit_iters = iteration >= crit.iteration_limit
            hit_time = time.perf_counter() >= deadline
            check_due = iteration == next_check or hit_iters or hit_time
            log_due = iteration == next_log
            if check_due or log_due:
                xu, yu = unscale_solution(*(t_parts if halpern else (state.x, state.y)), scaling)
                kkt = kkt_error(saddle0, xu, yu, constants)
                if log_due:
                    _log_progress(iteration, kkt, step)
                    next_log += config.log_interval
            # iteration 0 is a check, so last_kkt is set before any stop
            if check_due:
                next_check += CHECK_INTERVAL
                last_kkt, last_point = kkt, (xu, yu)
                history.append(
                    (iteration, kkt.rel_primal, kkt.rel_dual, kkt.rel_gap, step.step_size, step.primal_weight)
                )
                if check_optimal(kkt, crit):
                    stop = STATUS_OPTIMAL, f"relative KKT errors at or below {crit.tol_optimal}", None
                    break
                ray_shows = False
                if iteration > 0:
                    # No local keeps the point before or the candidates, so
                    # they are not held into the restart test's KKT evaluations.
                    hits, ray_shows = _ray_hits(
                        saddle0,
                        extract_certificates(
                            unscale_solution(*state.prev_parts, scaling), (xu, yu), (x0_u, y0_u), iteration
                        ),
                        TOL_INFEASIBLE,
                        constants,
                        adaptive,
                    )
                    stop = _confirmed(hits, streaks)
                    if stop:
                        break
                if hit_iters:
                    stop = STATUS_ITERATION_LIMIT, f"iteration limit {crit.iteration_limit} reached", None
                    break
                if hit_time:
                    stop = STATUS_TIME_LIMIT, f"time limit {crit.time_limit_sec} s reached", None
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

            # the next restart point, and the steps a stretch may take to it
            point, to_point = restarts.schedule(state, halpern) if restart_test is not None else (None, math.inf)
            error = None
            try:
                if adaptive:
                    state, step, accepted = adaptive_step(state, saddle, step, errstate=False)
                    if not accepted:
                        error = f"adaptive step rejected {stepsize.MAX_RETRIES} trials in a row"
                else:
                    # a constant step runs up to the loop's next event
                    stretch = min(next_check, next_log, crit.iteration_limit, iteration + to_point) - iteration
                    pdhg_step(state, saddle, step, halpern=halpern, errstate=False, count=stretch, deadline=deadline)
            except (NonFiniteIterate, StepSizeUnderflow) as err:
                error = str(err)
            iteration = state.total_count
            if error is not None:
                stop = STATUS_NUMERICAL_ERROR, error, None
                break

            if restart_test is not None:
                fire, why = restart_test(state, step, state.inner_count == point, iteration == next_check)
                if fire:
                    restarts_by_reason[why] += 1
                    # the weight follows the candidate's move from the anchor, in r
                    np.subtract(state.t, state.anchor, out=state.r)
                    weight = update_primal_weight(step.primal_weight, *map(_norm, state.r_parts), config.weight)
                    step = replace(step, primal_weight=weight)
                    apply_restart(state, t_parts)

    # Final report.  For a numerical-error stop the state still holds the
    # last good iterate, which may be newer than the last check point.
    status, reason, certificate = stop
    if status == STATUS_NUMERICAL_ERROR:
        xu, yu = unscale_solution(state.x, state.y, scaling)
        last_kkt, last_point = kkt_error(saddle0, xu, yu, constants), (xu, yu)
    xu, yu = last_point
    sign, offset = problem.objective_sign, problem.objective_offset
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
        gap_evaluations=restart_test.gap_evaluations if restart_test else 0,
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
        weight=WeightPolicy(mode="fixed"),
    )
    return solve(problem, config)
